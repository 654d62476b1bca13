"""The compiled dispatch window equals the step-by-step reference, byte for byte.

:class:`~repro.operator.dispatch.RollingDispatcher` fills the compiled window
template of the ring head its window sits at; ``dispatch_oracle.reference_row_form``
assembles the same window row by row from Python lists, in the same slot
order.  On random fleets, configurations and window states — the step-major
head 0 and rotated heads, nominal and faulted first steps alike — every
array of the two row forms must match in dtype and bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operator.dispatch import DispatchConfig, RollingDispatcher, SiteAsset

from dispatch_oracle import assert_row_forms_identical, reference_row_form

#: DispatchConfig keywords and a battery switch of each covered set-up.
SETUPS = {
    "net-metering": ({"allow_export": True}, True),
    "batteries-only": ({"allow_export": False}, True),
    "no-storage": ({"allow_export": False}, False),
    "shed-tiers": ({"shed_tiers": ((0.5, 30.0), (0.3, 8.0), (0.2, 2.0))}, True),
}

@st.composite
def windows(draw, setup, slides_past_a_lap=None):
    """A fleet, a config, a window state and the step of the last cold load.

    With ``slides_past_a_lap`` the series cover that many windows more than
    a full lap of the ring (``horizon`` consecutive windows).
    """
    config_kwargs, batteries = SETUPS[setup]
    num_sites = draw(st.integers(1, 3))
    horizon = draw(st.integers(2, 7))
    origin = draw(st.integers(0, 5))
    start = origin + draw(st.integers(0, 2 * horizon))
    slides = 0 if slides_past_a_lap is None else horizon + slides_past_a_lap - 1
    length = start + horizon + slides + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = [
        SiteAsset(
            name=f"site{d}",
            capacity_kw=float(rng.uniform(50.0, 900.0)),
            battery_kwh=float(rng.uniform(10.0, 300.0)) if batteries else 0.0,
            energy_price_per_kwh=float(rng.uniform(0.03, 0.2)),
            pue=rng.uniform(1.05, 1.6, length),
            production_kw=rng.uniform(0.0, 800.0, length),
        )
        for d in range(num_sites)
    ]
    config = DispatchConfig(
        horizon=horizon,
        step_hours=draw(st.sampled_from([0.5, 1.0, 2.0])),
        migration_factor=draw(st.floats(0.0, 1.0)),
        battery_efficiency=draw(st.floats(0.5, 1.0)),
        export_credit=draw(st.floats(0.0, 1.0)),
        wan_move_kw=draw(st.one_of(st.none(), st.floats(0.0, 500.0))),
        **config_kwargs,
    )
    capacities = np.array([site.capacity_kw for site in sites])
    window = dict(
        start_step=start,
        load_kw=rng.uniform(0.0, 1.0, num_sites) * capacities,
        level_kwh=np.array([rng.uniform(0.0, site.battery_kwh) for site in sites]),
        demand_hat=rng.uniform(0.0, 1.2, horizon) * capacities.sum(),
        production_hat=rng.uniform(0.0, 800.0, (num_sites, horizon)),
    )
    if draw(st.booleans()):  # a faulted first step: outages and/or a degraded WAN
        window["capacity_now"] = rng.uniform(0.0, 1.0, num_sites) * capacities
        window["wan_factor"] = draw(st.floats(0.0, 1.0))
    return sites, config, window, origin


class TestCompiledWindowMatchesReference:
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_windows_are_byte_identical(self, setup, data):
        sites, config, window, origin = data.draw(windows(setup))
        dispatcher = RollingDispatcher(sites, config)
        dispatcher._set_window(**window)
        dispatcher._origin = origin
        assert_row_forms_identical(dispatcher._window_row_form(), reference_row_form(dispatcher))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(SETUPS)), st.integers(1, 4), st.data())
    def test_consecutive_windows_reuse_one_template(self, setup, extra, data):
        """Each head's template is compiled once, and filling it never leaks
        one window's values into the next, across a wrap of the ring."""
        sites, config, window, origin = data.draw(windows(setup, slides_past_a_lap=extra))
        dispatcher = RollingDispatcher(sites, config)
        dispatcher._origin = origin
        rotated = []
        rotate = dispatcher._rotate

        def counting_rotate(template, head):
            rotated.append(head)
            return rotate(template, head)

        dispatcher._rotate = counting_rotate
        heads = []
        for offset in range(config.horizon + extra):
            shifted = dict(window, start_step=window["start_step"] + offset)
            if offset % 2:  # alternate faulted and nominal first steps
                shifted.pop("capacity_now", None)
                shifted.pop("wan_factor", None)
            dispatcher._set_window(**shifted)
            heads.append(dispatcher._head)
            assert_row_forms_identical(
                dispatcher._window_row_form(), reference_row_form(dispatcher)
            )
        assert heads[config.horizon] == heads[0]  # a full lap of the ring
        assert sorted(rotated) == list(range(1, config.horizon))
        assert len(dispatcher._templates) == config.horizon
