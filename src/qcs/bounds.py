"""Closed-form convergence quantities and their exact walk oracle.

The completion analysis models every non-stationary token as a random
walker on the transmission chain.  This module computes the per-window
visit-probability lower bounds (plain and delayed), the number of
windows needed for a target confidence, the resulting completion-step
bounds, and the exact occupation probability of a single token, used to
machine-check the probability bounds on small graphs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .digraph import Digraph
from .engine import UNIT_DELAY, DelayModel

Rational = Union[int, float, Fraction]

# Exact confidence verification is skipped above this many windows; the
# float ceiling with the snap tolerance is then the final answer.
_EXACT_VERIFY_LIMIT = 4096
_CEIL_SNAP = 1e-9
_FLOAT_FLOOR = Fraction(1, 10**290)  # visit floors below it count windows exactly

# n above which the walk oracle switches from exact rationals to floats
_EXACT_WALK_LIMIT = 12


def _as_fraction(x: Rational) -> Fraction:
    """Exact rational view; floats convert via their decimal repr."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def visit_prob_bound(diam: int, max_out_degree: int) -> Fraction:
    """Lower bound on a token reaching any fixed node within one D-step window."""
    if diam < 1 or max_out_degree < 1:
        raise ValueError(
            f"need diam >= 1 and max_out_degree >= 1, got {diam}, {max_out_degree}"
        )
    return Fraction(1, (1 + max_out_degree) ** diam)


def visit_prob_bound_delayed(
    diam: int,
    max_out_degree: int,
    min_max_delay_prob: Rational,
) -> Fraction:
    """Delayed-walk analogue over a D*B window.

    The per-hop worst case charges both the uniform routing choice and
    the probability of drawing the maximum processing delay.
    """
    p = _as_fraction(min_max_delay_prob)
    if not 0 < p <= 1:
        raise ValueError(f"min_max_delay_prob must be in (0, 1], got {min_max_delay_prob}")
    return visit_prob_bound(diam, max_out_degree) * p**diam


def _windows_for(epsilon: Rational, per_window: Fraction) -> int:
    """per_window is one of the visit bounds above, so in (0, 1/2]."""
    eps = _as_fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if per_window < _FLOAT_FLOOR:
        # log(eps) / p would overflow a float; there -log(1 - p) is p to
        # within a factor 1 + p, far below float precision
        return math.ceil(Fraction(-math.log(float(eps))) / per_window)
    # log1p keeps -log(1 - p) from rounding to 0 once p is below 2**-53
    quotient = math.log(float(eps)) / math.log1p(-float(per_window))
    tau = max(1, math.ceil(quotient - _CEIL_SNAP))
    # defensive +1 at representability boundaries: bump until the
    # confidence inequality (1-p)^tau <= eps verifiably holds
    if tau <= _EXACT_VERIFY_LIMIT:
        miss = 1 - per_window
        while miss**tau > eps:
            tau += 1
    return tau


def _reported(floor: Fraction) -> Union[float, str]:
    """A visit floor as a float, or to 17 digits in a string where a float underflows."""
    if floor >= sys.float_info.min:
        return float(floor)
    from decimal import Decimal, localcontext  # here: most runs never need the module
    with localcontext() as ctx:
        ctx.prec = 17
        return f"{(Decimal(floor.numerator) / floor.denominator).normalize():e}"


def windows_for_confidence(epsilon: Rational, diam: int, max_out_degree: int) -> int:
    """Windows after which a token has visited a target with prob >= 1-epsilon."""
    return _windows_for(epsilon, visit_prob_bound(diam, max_out_degree))


def windows_for_confidence_delayed(
    epsilon: Rational,
    diam: int,
    max_out_degree: int,
    min_max_delay_prob: Rational,
) -> int:
    """Delayed-walk window count for confidence 1-epsilon."""
    return _windows_for(
        epsilon, visit_prob_bound_delayed(diam, max_out_degree, min_max_delay_prob)
    )


def target_quotient(y0: Sequence[int], z0: Sequence[int]) -> Fraction:
    """The exact agreement target: total initial mass over total tokens.

    The initialization doubling cancels in the ratio, so raw inputs and
    doubled inputs give the same quotient.
    """
    total_z = sum(z0)
    if total_z <= 0:
        raise ValueError("total token count must be positive")
    return Fraction(sum(y0), total_z)


def initial_state_error(y0: Sequence[int], quotient: Rational) -> int:
    """Total deviation mass driving the completion-step bounds.

    Sums how far raw initial masses sit above the ceiling of the target
    quotient plus how far they sit below its floor, exactly as the
    analysis defines it.
    """
    q = _as_fraction(quotient)
    hi = math.ceil(q)
    lo = math.floor(q)
    above = sum(v - hi for v in y0 if v > hi)
    below = sum(lo - v for v in y0 if v < lo)
    return above + below


def completion_step_bound(initial_error: int, n: int, windows: int, diam: int) -> int:
    """Step count after which termination holds with the stated confidence.

    The B = 1 case of completion_step_bound_delayed.
    """
    return completion_step_bound_delayed(initial_error, n, windows, diam, 1)


def completion_step_bound_delayed(
    initial_error: int,
    n: int,
    windows: int,
    diam: int,
    max_delay: int,
) -> int:
    """Step count after which termination holds under delays up to B = max_delay.

    (initial_error + n) * windows windows of D*B steps, plus one window.
    """
    if initial_error < 0 or min(n, windows, diam, max_delay) < 1:
        raise ValueError(
            "need initial_error >= 0 and n, windows, diam, max_delay >= 1, got "
            f"{initial_error}, {n}, {windows}, {diam}, {max_delay}"
        )
    return ((initial_error + n) * windows + 1) * diam * max_delay


def token_walk_probability(
    g: Digraph,
    start: int,
    target: int,
    steps: int,
) -> Union[Fraction, float]:
    """Exact probability a single token sits at `target` after `steps` hops.

    Each hop moves the token from node j to one of j's out-neighbors or
    j itself, each with probability 1/(1 + out-degree of j): the routing
    law of a piece.  Exact rationals up to n=12; beyond that, float64.
    """
    if not (0 <= start < g.n and 0 <= target < g.n):
        raise ValueError(f"start/target must be node ids in 0..{g.n - 1}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    indptr, targets = g.out_csr
    degrees = np.diff(indptr)
    exact = g.n <= _EXACT_WALK_LIMIT
    if exact:
        share = np.array([Fraction(1, 1 + d) for d in degrees.tolist()], dtype=object)
    else:
        share = 1.0 / (1 + degrees)
    dist = np.zeros(g.n, dtype=share.dtype)
    dist[start] = 1
    for _ in range(steps):
        sent = dist * share
        dist = sent.copy()
        np.add.at(dist, targets, sent.repeat(degrees))
    return Fraction(dist[target]) if exact else float(dist[target])


def bounds_report(
    g: Digraph,
    epsilon: Rational,
    y0: Sequence[int],
    z0: Sequence[int],
    delay: DelayModel = UNIT_DELAY,
    window_basis: Optional[int] = None,
) -> dict:
    """All closed-form quantities for one instance under `delay`, JSON-ready.

    One chain, visit floor then window count then step bound, runs at
    unit delays and, when delay's B exceeds 1, again under delay (its
    `_delayed` keys), charging each hop delay.min_max_delay_prob(n).

    window_basis is the D of a run's D*B-step vote windows (a diameter
    bound), None for the exact diameter.  Window counts use the exact
    diameter, since a longer window holds a D*B one; the step bounds
    count windows of window_basis*B steps.
    """
    quotient = target_quotient(y0, z0)
    err = initial_state_error(y0, quotient)
    diam = g.diameter
    basis = diam if window_basis is None else window_basis
    deg = g.max_out_degree
    report = {
        "n": g.n,
        "diameter": diam,
        "max_out_degree": deg,
        "epsilon": float(_as_fraction(epsilon)),
        "target_quotient": float(quotient),
        "initial_state_error": err,
    }
    chains = [("", 1, 1)]
    if delay.max_delay > 1:
        chains.append(("_delayed", delay.max_delay, delay.min_max_delay_prob(g.n)))
    for suffix, max_delay, p in chains:
        if suffix:
            report.update(max_delay=max_delay, min_max_delay_prob=float(p))
        windows = windows_for_confidence_delayed(epsilon, diam, deg, p)
        report[f"visit_prob_bound{suffix}"] = _reported(visit_prob_bound_delayed(diam, deg, p))
        report[f"windows{suffix}"] = windows
        report[f"completion_step_bound{suffix}"] = completion_step_bound_delayed(
            err, g.n, windows, basis, max_delay
        )
    return report
