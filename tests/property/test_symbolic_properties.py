"""Property tests: symbolic verdicts agree with the concrete analyzer.

Per-family, at hypothesis-drawn random ``(n, k)`` instantiation points,
the rules the symbolic prover marks applicable must produce exactly the
same error set as running the concrete :class:`Analyzer` on the
instantiated design — the same contract the fuzzer's instantiation
oracle and ``repro certify --all --gate 500`` (run in CI) enforce at
scale.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.certcheck import check_certificate
from repro.analyze.symbolic import (
    SYMBOLIC_FAMILIES,
    certify,
    symbolic_family,
)
from repro.analyze.symbolic.instantiate import _K_MAX, _N_MAX, concrete_errors

#: Pre-certified reports, shared across examples (certify is pure).
_REPORTS = {}


def report_for(name):
    if name not in _REPORTS:
        _REPORTS[name] = certify(name)
    return _REPORTS[name]


#: Parametric (free-n) families exercise the interesting closed forms;
#: fixed-n catalog families only vary k.
PARAMETRIC = tuple(
    name for name in sorted(SYMBOLIC_FAMILIES)
    if symbolic_family(name).n_fixed is None
)


@pytest.mark.parametrize("name", PARAMETRIC)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_symbolic_matches_concrete_at_random_points(name, data):
    design = symbolic_family(name)
    n = data.draw(
        st.integers(design.n_min, max(design.n_min, _N_MAX[design.kind])),
        label="n",
    )
    k = data.draw(
        st.integers(design.k_min, max(design.k_min, _K_MAX[design.kind])),
        label="k",
    )
    report = report_for(name)
    assert concrete_errors(design, n, k, report.applicable_rules) == report.errors_at(n, k)


@pytest.mark.parametrize(
    "name", sorted(set(SYMBOLIC_FAMILIES) - set(PARAMETRIC))
)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_fixed_n_families_match_concrete_over_k(name, data):
    design = symbolic_family(name)
    k = data.draw(
        st.integers(design.k_min, max(design.k_min, _K_MAX[design.kind])),
        label="k",
    )
    report = report_for(name)
    n = design.n_fixed
    assert concrete_errors(design, n, k, report.applicable_rules) == report.errors_at(n, k)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_mutated_byte_is_rejected_by_certcheck(data):
    name = data.draw(st.sampled_from(sorted(SYMBOLIC_FAMILIES)), label="family")
    report = report_for(name)
    cert = data.draw(st.sampled_from(report.certificates), label="certificate")
    text = cert.to_json()
    pos = data.draw(st.integers(0, len(text) - 1), label="offset")
    delta = data.draw(st.integers(1, 94), label="delta")
    new = chr((ord(text[pos]) - 32 + delta) % 95 + 32)
    tampered = text[:pos] + new + text[pos:][1:]
    try:
        parsed = json.loads(tampered)
    except ValueError:
        return  # mutation broke the JSON: rejected before any checking
    if parsed == json.loads(text):
        return  # value-preserving mutation (cannot occur in canonical JSON)
    assert not check_certificate(parsed).ok
