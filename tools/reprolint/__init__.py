"""reprolint — repo-specific static analysis for reproducibility contracts.

The repository's hardest guarantees are *behavioural*: bit-identical results
across serial/thread/process executors, content-hash-keyed artifact caches
that stay valid across processes, warm-started LP windows that reproduce cold
solves.  Differential tests catch violations after the fact; ``reprolint``
encodes the source-level contracts those guarantees rest on as checkable AST
rules, so a violation fails CI before it ships:

========  =====================================================================
Rule      Contract
========  =====================================================================
DET001    No global-state RNG (``random.random()``, ``np.random.rand()``,
          unseeded ``default_rng()``): all randomness must flow from an
          explicit seed (counter-based / crc32-derived), or results differ
          across processes and runs.
DET002    No builtin ``hash()`` outside ``__hash__``: ``PYTHONHASHSEED``
          randomises it per process, so it must never feed cache keys,
          content hashes or anything order-bearing.  Use ``zlib.crc32`` /
          ``hashlib`` over a canonical encoding.
DET003    No wall-clock reads (``time.time``, ``datetime.now``) in library
          code: pure compute and hashing paths must be time-independent
          (``time.perf_counter``/``monotonic`` stay legal for duration
          measurement).
DET004    No RNG seed read from module state: every seeded constructor
          (``default_rng``/``Random``/``RandomState``/``SeedSequence``)
          must derive its seed from an explicit argument, parameter or
          local, so callers — not import order — decide the stream.
PKL001    No lambdas or locally-defined functions submitted to executors or
          stored in work descriptors: they do not pickle, so the code path
          silently stops working on the process executor.
FLT001    No exact ``==``/``!=`` float comparisons in solver-tolerance code
          (``lpsolver``/``core``/``operator``): LP optima are only defined to
          solver tolerance; compare with an explicit epsilon.
SET001    No ``set`` iteration flowing into ordered outputs (lists, arrays,
          joins, dict comprehensions): string-hash randomisation makes set
          order differ across processes.  Sort first.
IMP001    No module-level import of a SciPy subpackage (``scipy.<name>``;
          the top-level ``scipy`` package is fine) in ``src/``: every
          ``repro`` process would pay for it before planning anything, and
          even the light-looking subpackages import ``linalg``, ``sparse`` or
          ``special``.  Import it inside the function that runs it.
========  =====================================================================

Findings are suppressed line-by-line with ``# reprolint: ok(<RULE>)`` (comma
separate several rules; append a justification after the closing paren).
Configuration lives in ``pyproject.toml`` under ``[tool.reprolint]``.

Run as ``python -m tools.reprolint src tests``.
"""

from tools.reprolint.config import Config, load_config
from tools.reprolint.engine import Finding, lint_file, lint_paths, main
from tools.reprolint.rules import RULES

__all__ = [
    "Config",
    "Finding",
    "RULES",
    "lint_file",
    "lint_paths",
    "load_config",
    "main",
]
