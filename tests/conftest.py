"""Shared oracles for the test suite.

The analytic code paths are a periodic trapezoid rule for the Bessel
functions, double-precision series and Fock-stripe sums; the oracles
here are deliberately different routes: extended-precision mpmath series
and dense matrices, the ascending Bessel series in double precision,
dense matrix algebra, scipy special functions, Monte Carlo, a 3-D tensor
quadrature of the Holevo spectrum, Clenshaw-Curtis weights from the cosine
of every node product, and the Bessel-series traces of the
N-circle mixture (k-sums for the cross trace, pairwise stripe sums for
the purity).  Tests must never compare an analytic result against itself.

The package's Fock layer is real (canonical circle angles only), so the
complex side lives here: coherent states at any phase, built from scipy
log-amplitudes rather than the package's recurrence, their projector
average, and truncated displacement unitaries.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import entr, gammainc, gammaln, i0e, i1e, xlogy

from cvpqc import CutoffPolicy
from cvpqc.ensembles import disk_state_weights
from cvpqc.fockspace import coherent_amplitudes, disk_cutoff
from cvpqc.specialfns import SUPPORTED_X_MAX, ArgumentRangeError

TWO_PI = 2.0 * math.pi

# Large p stands in for the p -> infinity limit of the simplified distance:
# stripe sums at order >= p are negligible at every radius of interest.
P_LIMIT = 400

# Order window of the ascending Bessel series; its terms stay inside
# double range for x <= SUPPORTED_X_MAX.
SERIES_ORDER_MAX = 500

# The double-precision series stop once a term falls below SERIES_EPS
# relative, within SERIES_MAX_TERMS terms; the cross series takes at least
# KSUM_FLOOR terms, so it never stops near a zero partial sum.
SERIES_EPS = 1e-15
SERIES_MAX_TERMS = 10_000
KSUM_FLOOR = 30


def _check_range(order: int, x: float):
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if x > SUPPORTED_X_MAX or order > SERIES_ORDER_MAX:
        raise ArgumentRangeError(
            f"argument out of supported range: order={order} (max "
            f"{SERIES_ORDER_MAX}), x={x} (max {SUPPORTED_X_MAX})"
        )


def series_bessel_i(order: int, x: float) -> float:
    """I_order(x) by its ascending series in double precision:
    sum_s (x/2)^(order+2s) / ((order+s)! s!), the leading term built by
    incremental ratios and the tail cut at SERIES_EPS relative."""
    _check_range(order, x)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    h = 0.5 * x
    term = 1.0
    for k in range(1, order + 1):
        term *= h / k
    if term == 0.0:
        # leading term underflows; every later term is smaller still
        return 0.0
    total = term
    h2 = h * h
    for s in range(1, SERIES_MAX_TERMS):
        term *= h2 / ((order + s) * s)
        total += term
        if term < SERIES_EPS * total:
            break
    return total


def series_bessel_sum(order_step: int, x: float) -> float:
    """Stripe sum sum_{k>=1} I_(order_step k)(x) of series_bessel_i terms,
    cut when a term falls below SERIES_EPS (running sum + 1) or the order
    passes SERIES_ORDER_MAX."""
    if order_step < 1:
        raise ValueError(f"order_step must be >= 1, got {order_step}")
    _check_range(0, x)
    if x == 0.0:
        return 0.0
    total = 0.0
    for k in range(1, SERIES_MAX_TERMS):
        order = order_step * k
        if order > SERIES_ORDER_MAX:
            break  # term already below any representable contribution
        term = series_bessel_i(order, x)
        total += term
        if term < SERIES_EPS * (total + 1.0):
            break
    return total


def series_cross_bessel_sum(b: float, r):
    """sum_{k>=1} (b/r)^k I_k(2rb) by the regrouped double series.

    Expanding each Bessel series and collecting powers of r gives
    sum_s (r^(2s)/s!) * sum_{m>s} b^(2m)/m!; the inner sum is tracked by
    decrementing the full exponential series term by term.  An array r
    runs until every element meets the cutoff; a scalar r gives a float.
    """
    r = np.asarray(r, dtype=float)
    lam = b * b
    g = math.expm1(lam)  # g_s = sum_{m>s} b^(2m)/m!, walked down from e^(b^2) - 1
    pmf = 1.0  # b^(2s)/s!
    total = np.zeros_like(r)
    term_r = np.ones_like(r)  # r^(2s)/s!
    r2 = r * r
    for s in range(1, SERIES_MAX_TERMS + 1):
        total += term_r * g
        pmf *= lam / s
        g -= pmf
        if g <= 0.0:
            break
        term_r *= r2 / s
        if s >= KSUM_FLOOR and np.all(term_r * g < SERIES_EPS * total):
            break
    else:
        raise RuntimeError(f"cross series not converged in {SERIES_MAX_TERMS} terms")
    return total if total.ndim else float(total)


def mp_cross_bessel_sum(b: float, r: float, dps: int = 50) -> float:
    """sum_{k>=1} (b/r)^k I_k(2rb) term by term in mpmath at dps digits,
    until the terms, falling past k = b^2, drop below 10^-dps of the total."""
    with mpmath.workdps(dps):
        b, r = mpmath.mpf(b), mpmath.mpf(r)
        total, k = mpmath.mpf(0), 0
        while True:
            k += 1
            term = (b / r) ** k * mpmath.besseli(k, 2 * r * b)
            total += term
            if k > b * b and term < mpmath.mpf(10) ** -dps * total:
                return float(total)


def mp_bessel_i(order: int, x: float, terms: int = 200) -> float:
    """I_order(x) by direct extended-precision series summation."""
    with mpmath.workdps(50):
        h = mpmath.mpf(x) / 2
        total = mpmath.mpf(0)
        for s in range(terms):
            total += h ** (order + 2 * s) / (
                mpmath.factorial(order + s) * mpmath.factorial(s)
            )
        return float(total)


def mp_poisson_tail(n: int, lam: float) -> float:
    """P(X > n) through the regularized incomplete gamma function."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(n + 1, 0, lam, regularized=True))


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Fock amplitudes of |alpha>, n < dim, from the log-magnitudes
    -|alpha|^2/2 + n log|alpha| - gammaln(n + 1)/2 and the phases n arg(alpha)."""
    n = np.arange(dim)
    r = abs(alpha)
    log_mag = -0.5 * r * r + xlogy(n, r) - 0.5 * gammaln(n + 1)
    return np.exp(log_mag + 1j * n * np.angle(alpha))


def projector_average(alphas, dim: int) -> np.ndarray:
    """Uniform mixture of the coherent projectors |alpha><alpha|; the
    brute-force route."""
    acc = np.zeros((dim, dim), dtype=complex)
    for alpha in alphas:
        c = coherent_state(alpha, dim)
        acc += np.outer(c, c.conj())
    return acc / len(alphas)


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """Truncated D(beta) = exp(beta a^dag - beta* a).

    The generator is anti-Hermitian, so the exponential is taken through
    the eigendecomposition of its Hermitian partner.  The top rows of the
    result are inaccurate; the cutoff margin absorbs that.
    """
    n = np.sqrt(np.arange(1, dim))
    k = np.diag(beta * n, -1) - np.diag(np.conj(beta) * n, 1)
    w, v = np.linalg.eigh(-1j * k)
    return (v * np.exp(1j * w)) @ v.conj().T


def displacement_conjugate(rho: np.ndarray, beta: complex) -> np.ndarray:
    """D(beta) rho D^dag(beta) on the truncated space."""
    d = displacement_matrix(beta, rho.shape[0])
    return d @ rho @ d.conj().T


def circle_disk_constant(b: float) -> float:
    """C(b) = ||rho_circle(b) - unit_b||^2 through scipy's scaled Bessels.

    rho_circle(b) is the continuous average of coherent projectors over
    the circle of radius b (Poisson-diagonal).  With x = 2b^2 the three
    traces give C(b) = e^(-x) [I_0(x) - I_1(x) / b^2].  Euler-Maclaurin on
    the N-circle radial sum makes C(b) the limit of N^2 D^2(b, N).
    """
    x = 2.0 * b * b
    return float(i0e(x) - i1e(x) / (b * b))


def bessel_trace_cross(b: float, n_circles: int) -> float:
    """Tr(unit Phi_N) from the Bessel k-sums: circle p adds
    p e^(-r_p^2) sum_k (b/r_p)^k I_k(2 r_p b), through the regrouped series."""
    p = np.arange(1, n_circles + 1)
    r_p = p * b / n_circles
    acc = float(np.sum(p * np.exp(-r_p * r_p) * series_cross_bessel_sum(b, r_p)))
    norm = 2.0 / (n_circles * (n_circles + 1))
    return norm * acc / (b * b * math.exp(b * b))


def bessel_trace_phi_sq(b: float, n_circles: int) -> float:
    """Tr(Phi_N^2) from Bessel stripe sums over all pairs of circles.

    Pairs of circles overlap on stripes at multiples of lcm(p1, p2) with
    Bessel argument 2 r_p1 r_p2; the summand is symmetric, so p2 >= p1.
    """
    scale = b / n_circles
    acc = 0.0
    for p1 in range(1, n_circles + 1):
        r1 = p1 * scale
        for p2 in range(p1, n_circles + 1):
            r2 = p2 * scale
            x = 2.0 * r1 * r2
            stripe = series_bessel_i(0, x) + 2.0 * series_bessel_sum(math.lcm(p1, p2), x)
            weight = p1 * p2 if p1 == p2 else 2 * p1 * p2
            acc += weight * math.exp(-(r1 * r1 + r2 * r2)) * stripe
    norm = 2.0 / (n_circles * (n_circles + 1))
    return norm * norm * acc


def mp_hs2_dense(b: float, n_circles: int, dim: int, dps: int = 40) -> float:
    """D^2 of the dense dim x dim Fock matrices in mpmath at dps digits:
    every circle's stripe entries e^(-r^2) r^(m+n) / sqrt(m! n!) and the
    disk diagonal from the regularized incomplete gamma function."""
    with mpmath.workdps(dps):
        b = mpmath.mpf(b)
        lam = b * b
        phi = [[mpmath.mpf(0)] * dim for _ in range(dim)]
        for p in range(1, n_circles + 1):
            r = p * b / n_circles
            c = [mpmath.exp(-r * r / 2) * r**j / mpmath.sqrt(mpmath.factorial(j))
                 for j in range(dim)]
            for i in range(dim):
                for j in range(i, dim, p):
                    phi[i][j] += p * c[i] * c[j]
        m = mpmath.mpf(n_circles * (n_circles + 1)) / 2
        total = mpmath.mpf(0)
        for i in range(dim):
            unit = mpmath.gammainc(i + 1, 0, lam, regularized=True) / lam
            total += (phi[i][i] / m - unit) ** 2
            total += 2 * sum((phi[i][j] / m) ** 2 for j in range(i + 1, dim))
        return float(total)


def longdouble_hs2(b: float, n_circles: int) -> float:
    """D^2 of Phi_N against the disk state on the disk_cutoff Fock block in
    np.longdouble: u_n from mpmath's regularized incomplete gamma at 40 digits,
    and each entry of Phi_N at the radii p b / N as a pairwise np.sum over the
    circles of p c_n(r_p)^2 on the diagonal, or a masked stripe sum off it."""
    dim = disk_cutoff(b).dim
    with mpmath.workdps(40):
        lam = mpmath.mpf(b) ** 2
        unit = np.array([np.longdouble(mpmath.nstr(
            mpmath.gammainc(n + 1, 0, lam, regularized=True) / lam, 30)) for n in range(dim)])
    p = np.arange(1, n_circles + 1).astype(np.longdouble)
    r = p * np.longdouble(b) / n_circles
    m = np.longdouble(n_circles) * (n_circles + 1) / 2
    phi = np.zeros((dim, dim), dtype=np.longdouble)
    c, rows = np.exp(-r * r / 2), []  # c_n(r_p) of every circle, one level n at a time
    for n in range(dim):
        phi[n, n] = np.sum(p * c * c) / m
        rows.append(c[: dim - 1])
        c = c * r / np.sqrt(np.longdouble(n + 1))
    amp = np.array(rows).T  # the circles q < dim, the only ones off the diagonal
    k = np.arange(dim)[None, :] - np.arange(dim)[:, None]
    for q in range(1, len(amp) + 1):
        on_stripe = (k > 0) & (k % q == 0)
        phi += np.where(on_stripe, q * np.outer(amp[q - 1], amp[q - 1]) / m, 0)
    return float(np.sum(np.square(np.diag(phi) - unit)) + 2 * np.sum(np.square(np.triu(phi, 1))))


def mp_simplified_d2(b: float, p: int, r: float, dim: int, dps: int = 80) -> float:
    """D^2 of one circle of p states at radius r against the disk state, in
    mpmath at dps digits: the stripe sums of c_n^2 = e^(-r^2) r^(2n) / n! and
    the disk diagonal from the regularized incomplete gamma function."""
    with mpmath.workdps(dps):
        b, r = mpmath.mpf(b), mpmath.mpf(r)
        lam = b * b
        w = [mpmath.exp(-r * r) * r ** (2 * n) / mpmath.factorial(n) for n in range(dim)]
        total = mpmath.mpf(0)
        for n in range(dim):
            unit = mpmath.gammainc(n + 1, 0, lam, regularized=True) / lam
            total += (w[n] - unit) ** 2
            total += 2 * sum(w[n] * w[m] for m in range(n + p, dim, p))
        return float(total)


def mp_simplified_minimizer(b: float, p: int, bracket, dim: int, dps: int = 40) -> float:
    """The radius in ``bracket`` where the dps-digit Fock sum of dD^2/dr for
    one circle of p states vanishes: D^2 = sum_n (w_n - u_n)^2 + 2 sum_n w_n T_n,
    with w_n = c_n(r)^2, w_n' = w_n (2n/r - 2r) and T_n the sum of w_m over
    m = n + p, n + 2p, ... < dim, taken from the top down; u_n does not
    depend on r.  Bisection on ``bracket``, whose ends must differ in sign.
    Shares no code with the trapezoid rule or the Bessel drive."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(b) ** 2
        unit = [mpmath.gammainc(n + 1, 0, lam, regularized=True) / lam for n in range(dim)]

        def slope(r):
            w = [mpmath.exp(-r * r)]
            for n in range(1, dim):
                w.append(w[-1] * r * r / n)
            dw = [w[n] * (2 * n / r - 2 * r) for n in range(dim)]
            t, dt = [mpmath.mpf(0)] * (dim + p), [mpmath.mpf(0)] * (dim + p)
            for n in reversed(range(dim)):
                m = n + p
                t[n] = (w[m] + t[m]) if m < dim else mpmath.mpf(0)
                dt[n] = (dw[m] + dt[m]) if m < dim else mpmath.mpf(0)
            return sum(2 * (w[n] - unit[n]) * dw[n] + 2 * (dw[n] * t[n] + w[n] * dt[n])
                       for n in range(dim))

        lo, hi = (mpmath.mpf(x) for x in bracket)
        assert slope(lo) < 0 < slope(hi), "the bracket must hold a minimum"
        for _ in range(48):  # bisection: the slope is about 1e-22 at b = 10, p = 2
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


def masked_stripe_hs2(b: float, n_circles: int):
    """(d2_exact, tr_cross, tr_phi2) of Phi_N against the disk state on the
    disk_cutoff Fock block, with the upper triangle of Phi_N built circle by
    circle: one masked dim x dim outer product per circle q < dim, kept where
    q divides the column minus the row."""
    dim = disk_cutoff(b).dim
    unit = disk_state_weights(b, dim)
    n = np.arange(dim)
    p = np.arange(1, n_circles + 1)
    amp = coherent_amplitudes(p * (b / n_circles), dim)
    norm = 2.0 / (n_circles * (n_circles + 1))
    k = n[None, :] - n[:, None]
    upper = np.zeros((dim, dim))
    for q in range(1, min(n_circles, dim - 1) + 1):
        on_stripe = (k > 0) & (k % q == 0)
        upper += np.where(on_stripe, q * np.outer(amp[q - 1], amp[q - 1]), 0.0)
    off2 = 2.0 * float(np.sum(np.square(norm * upper)))
    diag = norm * (p @ np.square(amp))
    return float(np.sum(np.square(diag - unit))) + off2, float(unit @ diag), float(diag @ diag) + off2


def masked_circle_mixture(p: int, radius: float, dim: int) -> np.ndarray:
    """One circle's stripe matrix as np.where(stripe, c c^T, 0), stripe the
    dim x dim mask (m - n) % p == 0."""
    c = coherent_amplitudes(radius, dim)
    idx = np.arange(dim)
    return np.where((idx[:, None] - idx[None, :]) % p == 0, np.outer(c, c), 0.0)


def literal_phi_n(b: float, n_circles: int, cutoff: CutoffPolicy) -> np.ndarray:
    """Phi_N as the literal sum (1/M) sum_p p * masked_circle_mixture(p, p b / N)
    over every circle p = 1..N, each a dense dim x dim stripe matrix, with
    M = N(N+1)/2 operations."""
    acc = np.zeros((cutoff.dim, cutoff.dim))
    for p in range(1, n_circles + 1):
        acc += p * masked_circle_mixture(p, p * b / n_circles, cutoff.dim)
    return acc / (n_circles * (n_circles + 1) // 2)


def column_off_diagonal_pairs(b: float, samples: int, seed: int = 0):
    """(mags, stderrs) of the off-diagonal Monte Carlo for every pair m > n,
    in np.tril_indices(20, -1) order, with one sample per row of a
    (samples, 20) amplitude array: the draws of holevo.off_diagonal_check
    (r1, r2, t1, t2 per batch of 20 000 samples), its angles through
    np.exp(1j t), |gamma|^2 and |c|^2 through np.abs, and sums over the columns."""
    dim, batch = 20, 20_000
    rng = np.random.default_rng(seed)
    sum_mat = np.zeros((dim, dim), dtype=complex)
    sum_sq = np.zeros((dim, dim))
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        r1 = b * np.sqrt(rng.random(k))
        r2 = b * np.sqrt(rng.random(k))
        t1 = TWO_PI * rng.random(k)
        t2 = TWO_PI * rng.random(k)
        gamma = r1 * np.exp(1j * t1) + r2 * np.exp(1j * t2)
        c = np.zeros((k, dim), dtype=complex)
        c[:, 0] = np.exp(-0.5 * np.abs(gamma) ** 2)
        for n in range(1, dim):
            c[:, n] = c[:, n - 1] * gamma / math.sqrt(n)
        sum_mat += c.T @ c.conj()
        p = np.abs(c) ** 2
        sum_sq += p.T @ p
        done += k
    mean = sum_mat / samples
    var = np.maximum(sum_sq / samples - np.abs(mean) ** 2, 0.0)
    pairs = np.tril_indices(dim, -1)
    return np.abs(mean)[pairs], np.sqrt(var / samples)[pairs]


def column_off_diagonal_check(b: float, samples: int, seed: int = 0):
    """(max_abs, stderr) of column_off_diagonal_pairs at its largest magnitude."""
    mags, stderrs = column_off_diagonal_pairs(b, samples, seed)
    i = int(np.argmax(mags))
    return float(mags[i]), float(stderrs[i])


def dense_saturation_curve(b: float, p_max: int, r_lo: float):
    """(p, r_at_min, d2_min) for p = 1..p_max on the dense Fock route.

    Averages p coherent projectors at angles 2*pi*q/p, takes the squared
    Frobenius distance to the disk-mixed state (diagonal P(X > n) / b^2
    from scipy's incomplete gamma), and minimizes over r in [r_lo, b]
    with scipy's bounded scalar minimizer.
    """
    cutoff = CutoffPolicy(max_radius=b, tail_budget=1e-12)
    n = np.arange(cutoff.dim)
    unit = np.diag(gammainc(n + 1, b * b) / (b * b))

    curve = []
    for p in range(1, p_max + 1):

        def d2(r, p=p):
            alphas = r * np.exp(1j * TWO_PI * np.arange(p) / p)
            return float(np.linalg.norm(unit - projector_average(alphas, cutoff.dim)) ** 2)

        res = minimize_scalar(
            d2, bounds=(r_lo, b), method="bounded", options={"xatol": 1e-9}
        )
        curve.append((p, float(res.x), float(res.fun)))
    return curve


def direct_clenshaw_curtis(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] at the n + 1 nodes cos(k pi / n), n even,
    with the cosine of every product: w_k = (2/n)(1 - sum_j beta_j cos(2 pi j k / n)),
    j = 1..n/2, beta_j = 2 / (4 j^2 - 1) halved at j = n/2, and w halved at both
    ends.  O(n^2) cosines, every row k summed on its own."""
    j = np.arange(1, n // 2 + 1)
    beta = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    k = np.arange(n + 1)
    w = (2.0 / n) * (1.0 - np.cos(np.outer(k, j) * (2.0 * math.pi / n)) @ beta)
    w[[0, -1]] *= 0.5
    return w


def quad_lambda_weights(b: float, dim: int) -> np.ndarray:
    """Normalized lambda_n, n < dim, each by its own adaptive scipy quad in t:
    the lens density (4/pi) sin 2t (2t - sin 2t) of s = 2b cos t, up to the
    constant that the normalization drops, times the Poisson(n; s^2) pmf
    taken in logs."""

    def integrand(t, n):
        s2 = (2.0 * b * math.cos(t)) ** 2
        lens = math.sin(2.0 * t) * (2.0 * t - math.sin(2.0 * t))
        return lens * math.exp(xlogy(n, s2) - s2 - math.lgamma(n + 1.0))

    lam = np.array([
        quad(integrand, 0.0, 0.5 * math.pi, args=(n,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for n in range(dim)
    ])
    return lam / lam.sum()


def tensor_lambda_weights(b: float, dim: int, order_xy: int = 32, phi_points: int = 64):
    """Normalized lambda_n, n < dim, by the 3-D route over both disk radii.

    lambda_n is proportional to int int int e^(-R^2) R^(2n)/n! x y dx dy dphi
    with R^2 = x^2 + y^2 - 2 x y cos(phi): tensor Gauss-Legendre in x and y
    on [0, b], periodic trapezoid in the relative angle phi.
    """
    x, wx = np.polynomial.legendre.leggauss(order_xy)
    x = 0.5 * b * (x + 1.0)
    wx = 0.5 * b * wx
    xs, ys = x[:, None, None], x[None, :, None]
    cos_phi = np.cos(TWO_PI * np.arange(phi_points) / phi_points)
    r2 = np.maximum(xs * xs + ys * ys - 2.0 * xs * ys * cos_phi, 0.0).ravel()
    w = np.repeat(np.outer(wx * x, wx * x).ravel(), phi_points)
    cur = w * np.exp(-r2)
    lam = np.empty(dim)
    for n in range(dim):
        if n:
            cur = cur * r2 / n
        lam[n] = cur.sum()
    return lam / lam.sum()


def tensor_holevo_chi(b: float, dim: int) -> float:
    """chi(b) in bits from the tensor-rule spectrum and the disk-state
    diagonal P(X > n) / b^2 of scipy's incomplete gamma."""
    n = np.arange(dim)
    disk = gammainc(n + 1, b * b) / (b * b)
    lam = tensor_lambda_weights(b, dim)
    return float((entr(lam).sum() - entr(disk).sum()) / math.log(2.0))


def holevo_classical_limit() -> float:
    """chi_inf = h(alpha + beta) - h(uniform disk) in bits, by scipy quad.

    Differential entropies of the uniform disk and of the sum of two
    independent uniform-disk points; both scale by log2(b^2), so the gap
    is taken at b = 1.  There the density of s = |alpha + beta| per unit
    area is A(s) / pi^2, with A the lens area of two unit disks at
    distance s.
    """

    def minus_f_log_f(s):
        f = (2.0 * math.acos(0.5 * s) - 0.5 * s * math.sqrt(4.0 - s * s)) / math.pi**2
        return -TWO_PI * s * f * math.log2(f) if f > 0.0 else 0.0

    h_sum, _ = quad(minus_f_log_f, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return h_sum - math.log2(math.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
