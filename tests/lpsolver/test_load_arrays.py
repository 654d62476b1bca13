"""Every row form the repo builds reaches HiGHS exactly as its arrays say.

``MutableHighsModel.load`` hands a :class:`~repro.lpsolver.RowFormLP`'s
arrays to HiGHS's array ``passModel``.  After each load the model HiGHS
holds (``getLp()``) must carry the row form's cost, column and row bounds,
column-wise ``start``/``index``/``value`` and integrality value for value:
the provisioning LP of one site, the joint N-1 contingency LP of two, the
Fig. 1 siting MILP, a compiled dispatch window and the edge shapes (no
rows, no nonzeros, 64-bit column starts).  The only change HiGHS makes on
the way in is its own: it drops matrix entries no larger than its
``small_matrix_value`` (the compiled templates keep explicit zeros).  As a
second oracle the same row form is loaded the long way, through a
``HighsLp`` filled property by property, and both handles must hold the
same bytes.
"""

import numpy as np
import pytest

from repro.core import build_full_milp
from repro.core.provisioning import ProvisioningCompiler
from repro.lpsolver import MutableHighsModel, RowFormLP, SolverOptions
from repro.lpsolver.highs_backend import _core
from repro.operator.dispatch import DispatchConfig, RollingDispatcher, SiteAsset
from repro.robust.contingency import ContingencyConfig, _annual_budget_kwh
from repro.robust.stochastic import _build_ensemble_row_form


def _held(highs):
    """The arrays of the LP a ``_Highs`` handle holds, named as in RowFormLP."""
    lp = highs.getLp()
    assert lp.a_matrix_.format_ == _core.MatrixFormat.kColwise
    assert lp.sense_ == _core.ObjSense.kMinimize and lp.offset_ == 0.0
    return {
        "shape": (lp.num_row_, lp.num_col_),
        "cost": np.asarray(lp.col_cost_, dtype=np.float64),
        "lower": np.asarray(lp.col_lower_, dtype=np.float64),
        "upper": np.asarray(lp.col_upper_, dtype=np.float64),
        "row_lower": np.asarray(lp.row_lower_, dtype=np.float64),
        "row_upper": np.asarray(lp.row_upper_, dtype=np.float64),
        "a_indptr": np.asarray(lp.a_matrix_.start_, dtype=np.int64),
        "a_indices": np.asarray(lp.a_matrix_.index_, dtype=np.int64),
        "a_data": np.asarray(lp.a_matrix_.value_, dtype=np.float64),
        "integrality": np.array([int(kind) for kind in lp.integrality_], dtype=np.int64),
    }


def _expected(row_form, small_value):
    """The row form as HiGHS keeps it: entries |v| <= ``small_value`` dropped."""
    data = np.asarray(row_form.a_data, dtype=np.float64)
    kept = np.abs(data) > small_value
    cols = np.repeat(np.arange(row_form.num_variables), np.diff(row_form.a_indptr))
    return {
        "shape": row_form.shape,
        "cost": np.asarray(row_form.cost, dtype=np.float64),
        "lower": np.asarray(row_form.lower, dtype=np.float64),
        "upper": np.asarray(row_form.upper, dtype=np.float64),
        "row_lower": np.asarray(row_form.row_lower, dtype=np.float64),
        "row_upper": np.asarray(row_form.row_upper, dtype=np.float64),
        "a_indptr": np.concatenate(
            [[0], np.cumsum(np.bincount(cols[kept], minlength=row_form.num_variables))]
        ).astype(np.int64),
        "a_indices": np.asarray(row_form.a_indices, dtype=np.int64)[kept],
        "a_data": data[kept],
        "integrality": (np.asarray(row_form.integrality) != 0).astype(np.int64),
    }


def _loaded_through_highs_lp(row_form):
    """A fresh handle loaded from a ``HighsLp`` set property by property."""
    lp = _core.HighsLp()
    lp.num_row_, lp.num_col_ = row_form.shape
    lp.col_cost_ = row_form.cost
    lp.col_lower_ = row_form.lower
    lp.col_upper_ = row_form.upper
    lp.row_lower_ = row_form.row_lower
    lp.row_upper_ = row_form.row_upper
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = row_form.shape
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = row_form.a_indptr
    lp.a_matrix_.index_ = row_form.a_indices
    lp.a_matrix_.value_ = row_form.a_data
    lp.integrality_ = [
        _core.HighsVarType.kInteger if flag else _core.HighsVarType.kContinuous
        for flag in row_form.integrality
    ]
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.passModel(lp) != _core.HighsStatus.kError
    return highs


def _assert_same(got, expected):
    assert got.keys() == expected.keys()
    assert got.pop("shape") == expected.pop("shape")
    for field, values in expected.items():
        assert got[field].dtype == values.dtype, field
        assert got[field].tobytes() == values.tobytes(), field


def assert_loads_exactly(row_form):
    model = MutableHighsModel()
    model.load(row_form)
    assert model.shape == (row_form.num_variables, row_form.num_rows)
    small_value = model._highs.getOptionValue("small_matrix_value")[1]
    held = _held(model._highs)
    _assert_same(dict(held), _expected(row_form, small_value))
    _assert_same(held, _held(_loaded_through_highs_lp(row_form)))
    return model


@pytest.fixture(scope="module")
def compiler(two_site_problem):
    return ProvisioningCompiler(two_site_problem)


def test_single_site_provisioning_lp(compiler, two_site_problem):
    name = two_site_problem.profiles[0].name
    row_form, _ = compiler.compile_row_form({name: "large"})
    assert len(row_form.a_data) and not row_form.integrality.any()
    assert_loads_exactly(row_form)


def test_joint_contingency_lp(compiler, two_site_problem):
    # The N-1 LP of solve_contingency_lp: S + 1 draws over shared sizing
    # columns, one site dark in each outage draw, and an unserved-energy
    # budget row per outage, appended last.
    config = ContingencyConfig()
    siting = {profile.name: "large" for profile in two_site_problem.profiles}
    S = len(siting)
    budget = _annual_budget_kwh(compiler, config.survivability_epsilon)
    row_form, layout = _build_ensemble_row_form(
        [compiler] * (S + 1),
        siting,
        weights=[1.0] + [config.contingency_weight / S] * S,
        normalize_weights=False,
        blocked_sites=[None] + list(range(S)),
        unserved_energy_budget=[None] + [budget] * S,
    )
    assert layout.num_draws == S + 1
    assert np.all(row_form.row_upper[-S:] == budget)
    assert np.all(np.isneginf(row_form.row_lower[-S:]))
    assert_loads_exactly(row_form)


def test_siting_milp(two_site_problem):
    milp = build_full_milp(two_site_problem).row_form
    assert milp.integrality.any() and not milp.integrality.all()
    assert_loads_exactly(milp)


def test_dispatch_window_template():
    rng = np.random.default_rng(3)
    sites = [
        SiteAsset(
            name=f"site{d}",
            capacity_kw=400.0 + 100.0 * d,
            battery_kwh=120.0,
            energy_price_per_kwh=0.05 + 0.03 * d,
            pue=rng.uniform(1.05, 1.4, 12),
            production_kw=rng.uniform(0.0, 500.0, 12),
        )
        for d in range(3)
    ]
    dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=6, wan_move_kw=200.0))
    dispatcher._set_window(
        start_step=2,
        load_kw=np.array([200.0, 250.0, 300.0]),
        level_kwh=np.array([10.0, 60.0, 110.0]),
        demand_hat=rng.uniform(300.0, 900.0, 6),
        production_hat=rng.uniform(0.0, 500.0, (3, 6)),
    )
    assert_loads_exactly(dispatcher._window_row_form())


def _row_form(num_rows, a_indptr, a_indices, a_data, integrality=None):
    num_cols = len(a_indptr) - 1
    return RowFormLP(
        cost=np.arange(1.0, num_cols + 1.0),
        a_indptr=a_indptr,
        a_indices=a_indices,
        a_data=a_data,
        shape=(num_rows, num_cols),
        row_lower=np.full(num_rows, 1.0),
        row_upper=np.full(num_rows, np.inf),
        lower=np.zeros(num_cols),
        upper=np.full(num_cols, 5.0),
        integrality=np.zeros(num_cols, dtype=np.int64) if integrality is None else integrality,
        maximise=False,
        objective_constant=0.0,
    )


def test_no_rows():
    empty = np.array([], dtype=np.int32)
    highs = assert_loads_exactly(_row_form(0, np.zeros(4, dtype=np.int32), empty, np.array([])))
    assert highs.solve(SolverOptions()).objective == 0.0


def test_no_nonzeros_with_rows():
    row_form = _row_form(2, np.zeros(3, dtype=np.int32), np.array([], dtype=np.int32), np.array([]))
    row_form.row_lower = np.full(2, -1.0)
    assert_loads_exactly(row_form)


def test_int64_column_starts_and_bool_integrality():
    row_form = _row_form(
        2,
        np.array([0, 2, 3, 4], dtype=np.int64),
        np.array([0, 1, 0, 1], dtype=np.int64),
        np.array([1.0, 2.0, 3.0, 4.0]),
        integrality=np.array([True, False, True]),
    )
    assert_loads_exactly(row_form)
