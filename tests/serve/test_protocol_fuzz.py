"""Fuzzing the request parser: a bad request is a ``SpecError``, never a crash.

``parse_request`` and ``parse_request_line`` either return a
:class:`PlanRequest` or raise :class:`SpecError`, which the server answers
with a typed ``spec_error`` response.  Any other exception would surface as
an ``internal`` error, or as no response at all.  The inputs are malformed
JSON text, non-object payloads, unknown envelope keys, bad request ids,
deeply nested values and wrong-typed values for every spec field.  A spec
that parses must also content-hash, as the server does first with it.

A value of the wrong type for any spec field or knob (a string seed, a
fractional location count, a bool where a number goes) is a ``SpecError``
too: the spec rejects it at construction instead of failing in the solve.
"""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios.spec import ScenarioSpec
from repro.serve import PlanRequest, SpecError, parse_request, parse_request_line

SPEC_FIELDS = [field.name for field in fields(ScenarioSpec)]
VALID_SPEC = ScenarioSpec(name="fuzz").to_dict()

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _nest(value, depth, as_object):
    for _ in range(depth):
        value = {"k": value} if as_object else [value]
    return value


# Deep enough to pass the interpreter's recursion limit when decoded.
deep_values = st.builds(_nest, json_scalars, st.integers(1, 3000), st.booleans())
bad_ids = st.one_of(
    st.booleans(),
    st.floats(),
    st.lists(json_scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)


def _payloads(nested):
    """Request payloads; ``nested`` adds values nested deeper than JSON can encode."""
    values = json_values | deep_values if nested else json_values
    wrong_fields = st.builds(
        lambda base, key, value: {**base, key: value},
        st.just(VALID_SPEC),
        st.sampled_from(SPEC_FIELDS),
        values,
    )
    return st.one_of(
        values.filter(lambda value: not isinstance(value, dict)),
        wrong_fields,
        st.builds(lambda spec: {"id": 1, "spec": spec}, wrong_fields | values),
        st.builds(
            lambda extra, value: {"spec": VALID_SPEC, **{extra: value}},
            st.text(max_size=6).filter(lambda key: key not in ("id", "spec")),
            values,
        ),
        st.builds(lambda request_id: {"id": request_id, "spec": VALID_SPEC}, bad_ids),
        st.dictionaries(st.sampled_from(SPEC_FIELDS + ["id", "spec", "bogus"]), values),
    )


def _deep_text(depth, opener, closer, inner="1"):
    return opener * depth + inner + closer * depth


malformed_lines = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda text, cut: text[:cut],
        st.just(json.dumps({"id": "x", "spec": VALID_SPEC})),
        st.integers(0, 200),
    ),
    st.builds(_deep_text, st.integers(1, 200_000), st.just("["), st.just("]")),
    st.builds(
        lambda depth: '{"id": 1, "spec": ' + _deep_text(depth, '{"a": ', "}") + "}",
        st.integers(1, 5000),
    ),
    st.builds(
        lambda key, depth: json.dumps({**VALID_SPEC, key: None}).replace(
            "null", _deep_text(depth, "[", "]"), 1
        ),
        st.sampled_from(SPEC_FIELDS),
        st.integers(1, 5000),
    ),
)


def _parses_or_spec_error(parse, argument):
    try:
        request = parse(argument)
    except SpecError:
        return
    assert isinstance(request, PlanRequest)
    # The server hashes every parsed spec before anything else.
    request.spec.content_hash()


@given(payload=_payloads(nested=True))
@settings(max_examples=300, deadline=None)
def test_parse_request_raises_only_spec_error(payload):
    _parses_or_spec_error(parse_request, payload)


@given(line=malformed_lines | _payloads(nested=False).map(json.dumps))
@settings(max_examples=300, deadline=None)
def test_parse_request_line_raises_only_spec_error(line):
    _parses_or_spec_error(parse_request_line, line)


def test_nesting_deeper_than_the_decoder_allows_is_a_spec_error():
    line = '{"id": 1, "spec": {"name": ' + _deep_text(100_000, "[", "]") + "}}"
    _parses_or_spec_error(parse_request_line, line)


#: Wrong-typed values for every spec field, including knobs of each block.
WRONG_TYPED = {
    "name": [1, None],
    "description": [["text"]],
    "workflow": [1],
    "num_locations": [2.5, "90", True],
    "catalog_seed": ["abc", 2014.0, False],
    "include_anchors": ["no", 1, None],
    "candidate_names": ["Kiev", [1, 2], {"Kiev": 1}],
    "days_per_season": ["1", 1.5],
    "hours_per_epoch": ["3", 3.0],
    "total_capacity_kw": ["5e4", True, None],
    "min_green_fraction": ["0.5", False],
    "sources": [1],
    "storage": [None],
    "green_enforcement": [["annual"]],
    "migration_factor": ["1", True],
    "net_meter_credit": [None],
    "min_availability": ["0.9", True],
    "param_overrides": [5, {"price_server": "x"}, {"servers_per_switch": 32.5}],
    "search": [5, {"seed": "x"}, {"keep_locations": 2.5}, {"move_weights": {"add": "x"}}],
    "emulation": ["x", {"num_vms": "x"}, {"sites": "Harare"}, {"initial_datacenter": 3}],
    "operate": [[1], {"steps": True}, {"shed_tiers": [[0.1, "x"]]}],
    "ensemble": [{"draws": 2.5}, {"mode": 1}],
    "faults": [5, "x", {"site_outages": "x"}],
    "contingency": [{"outage_start_step": "6"}, {"survivability_epsilon": None}],
}


def test_every_spec_field_has_wrong_typed_cases():
    assert sorted(WRONG_TYPED) == sorted(SPEC_FIELDS)


@pytest.mark.parametrize(
    "field_name, value",
    [(name, value) for name, values in WRONG_TYPED.items() for value in values],
)
def test_wrong_typed_field_is_a_spec_error(field_name, value):
    with pytest.raises(SpecError, match="invalid scenario spec"):
        parse_request({"id": 1, "spec": {**VALID_SPEC, field_name: value}})
