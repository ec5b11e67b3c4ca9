"""Ulp bounds of the volumes against a 40-digit mpmath oracle.

The oracle evaluates the closed forms at 40 digits with ``mp.loggamma``:

    log volume_gr(k, n) = log binom(n, k) + L(n) - L(k) - L(n - k),

with L(m) = sum_{j <= m} log w_j, the logs of the unit-ball volumes
w_j = pi^(j/2) / Gamma(1 + j/2) summed once into a table.  volume_graff(k, n)
is volume_gr(k + 1, n + 1), and relative_volume(k, l, n) is
volume_gr(k + 1, l + 1) / volume_gr(k + 1, n + 1).

An ulp is eps = 2**-52.  Every (k, n) with n < 80 (n < 79 for volume_graff) and
every admissible (k, l, n) with n < 60 is checked; the worst errors seen were
* 23.8 ulps of max(|log V|, 1) for ``volume_gr(..., log=True)``, at (11, 16);
* 1,512 ulps relative for the linear ``volume_graff`` wherever it is a normal
  float, at (14, 73): exp turns the log's absolute error into a relative one;
* 189.9 ulps of max(|log R|, 1) for ``relative_volume(..., log=True)``, at
  (1, 49, 50): the difference of two logs near 300 cancels to a small one.
"""

import math
import sys
from functools import lru_cache

from mpmath import mp

from graff import relative_volume, volume_gr, volume_graff

EPS = 2.0**-52
LOG_VOLUME_GR_ULPS = 32
VOLUME_GRAFF_ULPS = 2048
LOG_RELATIVE_VOLUME_ULPS = 256
TOP = 80  # volume_gr and volume_graff for n < TOP
RELATIVE_TOP = 60  # relative_volume for n < RELATIVE_TOP


@lru_cache(maxsize=None)
def _tables():
    """log m! and the cumulative L(m) for m <= TOP + 1, at 40 digits."""
    with mp.workdps(40):
        log_factorial = [mp.loggamma(m + 1) for m in range(TOP + 2)]
        cumulative = [mp.mpf(0)]
        for j in range(1, TOP + 2):
            log_w = j * mp.log(mp.pi) / 2 - mp.loggamma(mp.mpf(j) / 2 + 1)
            cumulative.append(cumulative[-1] + log_w)
    return log_factorial, cumulative


def _log_volume_gr(k, n):
    log_factorial, L = _tables()
    return log_factorial[n] - log_factorial[k] - log_factorial[n - k] + L[n] - L[k] - L[n - k]


def test_log_volume_gr_within_its_ulp_bound():
    worst = 0.0
    with mp.workdps(40):
        for n in range(TOP):
            for k in range(n + 1):
                exact = _log_volume_gr(k, n)
                error = abs(volume_gr(k, n, log=True) - exact) / max(abs(exact), 1)
                worst = max(worst, float(error) / EPS)
    assert worst <= LOG_VOLUME_GR_ULPS, f"worst {worst:.1f} ulps"


def test_volume_graff_within_its_relative_ulp_bound():
    worst, checked = 0.0, 0
    with mp.workdps(40):
        for n in range(1, TOP - 1):
            for k in range(n):
                got = volume_graff(k, n)
                if not (math.isfinite(got) and got >= sys.float_info.min):
                    continue
                exact = mp.exp(_log_volume_gr(k + 1, n + 1))
                worst = max(worst, float(abs(got - exact) / exact) / EPS)
                checked += 1
    assert checked > 2000
    assert worst <= VOLUME_GRAFF_ULPS, f"worst {worst:.1f} ulps"


def test_log_relative_volume_within_its_ulp_bound():
    worst = 0.0
    with mp.workdps(40):
        for n in range(RELATIVE_TOP):
            for l in range(n + 1):
                for k in range(n - l, l + 1):
                    exact = _log_volume_gr(k + 1, l + 1) - _log_volume_gr(k + 1, n + 1)
                    error = abs(relative_volume(k, l, n, log=True) - exact) / max(abs(exact), 1)
                    worst = max(worst, float(error) / EPS)
    assert worst <= LOG_RELATIVE_VOLUME_ULPS, f"worst {worst:.1f} ulps"
