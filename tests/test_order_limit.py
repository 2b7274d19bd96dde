"""One order limit for every library entry point that builds a lift: an
order-n input is refused when its n^2 x n^2 lift would have more than
``MAX_LIFT_ENTRIES`` = 2^24 entries (orders above 64), before anything of
that size is allocated, and accepted below, with no option to change it."""
import tracemalloc

import numpy as np
import pytest

from commspectra import (
    MAX_LIFT_ENTRIES,
    PreconditionError,
    SearchConfig,
    ascend,
    bound_report,
    check_isotropic_trace_bound,
    closed_form_summary,
    double_commutator_lift,
    double_commutator_spectrum,
    lambda13_search,
    make_bundle,
    monitor_majorization,
    monitor_partial_sums,
    reverify_bundle,
    sweep,
)

# the peak traced allocation of a refusal: far below one order-65 lift (285 MB complex)
REFUSAL_PEAK_BYTES = 16 * 2**20


def _entry_points(n: int) -> dict:
    """Each library entry point that builds a lift, called on order n."""
    X = np.eye(n, dtype=np.complex128)
    X[0, 1] = 1.0
    w = np.zeros((n, n), dtype=np.complex128)
    w[0, 0] = 1.0  # one unit matrix: an orthonormal isotropic family
    bundle = make_bundle("C2A", [X], 0.0, 0.0, 0.0, None)
    return {
        "double_commutator_spectrum": lambda: double_commutator_spectrum(X),
        "bound_report": lambda: bound_report(X),
        "monitor_partial_sums": lambda: monitor_partial_sums(X),
        "monitor_majorization": lambda: monitor_majorization(X),
        "closed_form_summary": lambda: closed_form_summary(X),
        "check_isotropic_trace_bound": lambda: check_isotropic_trace_bound(X, [w]),
        "reverify_bundle": lambda: reverify_bundle(bundle),
        "ascend": lambda: ascend(SearchConfig(order=n, k=1, restarts=1, max_iters=1)),
        "lambda13_search": lambda: lambda13_search(
            SearchConfig(order=n, k=2, restarts=1, max_iters=1)
        ),
        "sweep": lambda: sweep([n], k_rule=1, trials=1),
        "double_commutator_lift": lambda: double_commutator_lift(X),
    }


ENTRY_POINTS = list(_entry_points(2))


def test_the_limit_is_order_64():
    assert 64**4 <= MAX_LIFT_ENTRIES < 65**4


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_order_17_is_accepted_without_an_option(name):
    assert _entry_points(17)[name]() is not None


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_order_65_is_refused_before_any_lift_is_allocated(name):
    call = _entry_points(65)[name]
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="order 65"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < REFUSAL_PEAK_BYTES
