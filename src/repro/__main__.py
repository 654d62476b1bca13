from repro.cli import main
raise SystemExit(main())
