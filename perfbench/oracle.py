"""High-precision references for the three closed forms.

Each reference is evaluated with mpmath at 60 significant digits from the
instance's own floats (centers, radii, bias half range), so it is the exact
value for the input the program received.  A value within REL_BUDGET of its
reference passes.  Two kinds of miss are known defects of the closed forms
(measured and listed as ROADMAP item 3); they count as failed checks but do
not make a run incorrect:

* ``underflow``: the reference is below the smallest normal double and the
  program returns 0.0 or a subnormal (there is no log-space result yet);
* ``tail``: the value is off by more than REL_BUDGET but within TAIL_BUDGET,
  which covers the digits the bracket ``mid - sin(phi) * upper`` loses near
  sin(phi) = 1 (1.8e-7 at its worst measured point).

Anything else is ``wrong``: an unexpected failure.
"""

from __future__ import annotations

import sys

import mpmath

DIGITS = 60
REL_BUDGET = 1e-9
TAIL_BUDGET = 1e-6
_DBL_MIN = sys.float_info.min


def reference(center_a, radius_a, center_b, radius_b, k):
    """(p_bias, p_weight, p_full) as mpf values for one instance."""
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        dist = mpmath.sqrt(
            mpmath.fsum(
                (mpf(float(u)) - mpf(float(v))) ** 2
                for u, v in zip(center_a, center_b)
                if u != v
            )
        )
        r, p, k = mpf(radius_a), mpf(radius_b), mpf(k)
        sin_phi = (r + p) / dist
        q = 1 - sin_phi * sin_phi
        a = mpf(len(center_a) - 1) / 2
        p_weight = mpmath.betainc(a, mpf(1) / 2, 0, q, regularized=True)
        leading = q**a / (a * mpmath.beta(a, mpf(1) / 2))
        p_full = dist / (2 * k) * (leading - sin_phi * p_weight)
        p_bias = (dist - r - p) / (2 * k)
        return +p_bias, +p_weight, +p_full


def sweep_reference(n, delta):
    """Reference for one `sweep` cell at the CLI's defaults r = p = 1 and
    k-factor 1, from the floats the sweep builds: centers at
    -+(r + p + delta)/2 on the first axis and k equal to that half distance.
    """
    half = 0.5 * (1.0 + 1.0 + delta)
    center_a = [0.0] * n
    center_a[0] = -half
    center_b = [0.0] * n
    center_b[0] = half
    return reference(center_a, 1.0, center_b, 1.0, half)


def classify(got, want):
    """'ok', 'underflow', 'tail' or 'wrong' for one value."""
    with mpmath.workdps(DIGITS):
        error = abs(mpmath.mpf(got) - want)
        if error <= REL_BUDGET * abs(want):
            return "ok"
        if want < _DBL_MIN and abs(got) < _DBL_MIN:
            return "underflow"
        if error <= TAIL_BUDGET * abs(want):
            return "tail"
    return "wrong"


SEVERITY = {"ok": 0, "underflow": 1, "tail": 2, "wrong": 3}


def worst(values, references):
    """Worst class over (p_bias, p_weight, p_full) against their references."""
    return max((classify(g, w) for g, w in zip(values, references)), key=SEVERITY.__getitem__)
