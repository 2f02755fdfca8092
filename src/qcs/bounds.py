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
from decimal import Context
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .digraph import Digraph
from .engine import UNIT_DELAY, DelayModel

Rational = Union[int, float, Fraction]

# n above which the walk oracle switches from exact rationals to floats
_EXACT_WALK_LIMIT = 12


def _as_fraction(x: Rational) -> Fraction:
    """Exact rational view; floats convert via their decimal repr."""
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


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


def _neg_ln(x: Fraction, bits: int) -> tuple[int, int]:
    """(v, e) with v <= -ln(x) * 2**bits <= v + e, for a rational x in (0, 1).

    -ln x = j ln 2 - ln(x 2**j), x 2**j in (1/2, 1], and -ln y = 2 atanh((1 - y) / (1 + y)):
    floored positive terms in u <= 1/3, so each atanh sum is short by under 2 * odd units.
    """
    a, b = x.numerator, x.denominator
    j = b.bit_length() - a.bit_length()
    j -= (a << j) > b
    value = error = 0
    for s, t, times in ((1, 3, j), (b - (a << j), b + (a << j), 1)):
        power, total, odd = (s << bits) // t if times else 0, 0, 1
        s, t = s * s, t * t
        while power:
            total += power // odd
            power, odd = power * s // t, odd + 2
        value, error = value + 2 * times * total, error + 4 * times * odd
    return value, error


def _reported(floor: Fraction) -> Union[float, str]:
    """A visit floor as a float, or to 17 digits in a string where a float underflows."""
    if floor >= sys.float_info.min:
        return float(floor)
    ctx = Context(prec=17)
    return f"{ctx.divide(floor.numerator, floor.denominator).normalize(ctx):e}"


def windows_for_confidence(epsilon: Rational, diam: int, max_out_degree: int) -> int:
    """The min_max_delay_prob = 1 case of windows_for_confidence_delayed."""
    return windows_for_confidence_delayed(epsilon, diam, max_out_degree, 1)


def windows_for_confidence_delayed(
    epsilon: Rational,
    diam: int,
    max_out_degree: int,
    min_max_delay_prob: Rational,
) -> int:
    """The least tau >= 1 with (1 - p)**tau <= epsilon, p the delayed visit floor."""
    per_window = visit_prob_bound_delayed(diam, max_out_degree, min_max_delay_prob)
    eps = _as_fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    miss = 1 - per_window
    # tau = ceil(ln eps / ln miss) from integer brackets of both logarithms, with
    # shift more bits for -ln miss > p > 2**-shift, doubled while tau is unsure
    shift = (per_window.denominator // per_window.numerator).bit_length()
    bits = shift + 64
    while True:
        (num, num_err), (den, den_err) = _neg_ln(eps, bits), _neg_ln(miss, bits + shift)
        tau = -(-(num << shift) // (den + den_err))
        if tau == -(-((num + num_err) << shift) // den):
            return tau
        # only a tie eps == miss**tau stays unsure, and it needs eps.denominator >= 2**tau
        if tau < eps.denominator.bit_length() and miss**tau == eps:
            return tau
        bits *= 2


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
    lo, hi = math.floor(q), math.ceil(q)
    return sum(max(v - hi, lo - v, 0) for v in y0)


def completion_step_bound(initial_error: int, n: int, windows: int, diam: int) -> int:
    """The B = 1 case of completion_step_bound_delayed."""
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
