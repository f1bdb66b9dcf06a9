"""GHZ-parity interferometric likelihood model.

An N-qubit GHZ probe read out through a parity measurement produces a binary
outcome mu = +/-1 whose single-shot probability is

    p(+1 | theta) = (1 + cos(N theta)) / 2,
    p(-1 | theta) = 1 - p(+1 | theta).

A record of m independent shots is summarised without loss by the tally
k = number of +1 outcomes; the probability of any particular sequence with
tally k is p_+^k p_-^(m-k), and C(m, k) sequences share it.  All expectations
over measurement records are therefore sums of m+1 tally terms instead of
2^m sequence terms.

The Fisher information of this model is N^2 at every phase.  The naive
quotient (dp/dtheta)^2 / p degenerates to 0/0 where p_+ p_- = 0, so
``fisher_information`` uses the reduced analytic form rather than the
direct sum.

One kernel, ``tally_pmf_matrix``, evaluates the tally pmf C(m,k)
p_+^k p_-^(m-k) in the log domain, the only exp pass in the package.  Every
pmf derivative is the pmf times its closed-form score d/dtheta log pmf =
c (k p_- - (m - k) p_+), c = p_+' / (p_+ p_-) (``_score``); the posterior
summary weighs the pmf by the posterior's score, with that part c (k - m p_+).

log C(m, k) is log m! - log k! - log (m-k)!, read from a per-process table
of log n! that grows to the largest m asked for.  Each entry is computed by
the operations of the cephes ``lgam`` routine behind ``scipy.special.gammaln``
at integer arguments, with ``math.log``: the log of the exact product
n(n-1)...2 for n < 12, Stirling's series above.  The logs of p_+ and p_- are
taken with ``math.log``, the libm call of ``scipy.special.xlogy``, once per
(model, grid) in each process (``_grid_logs`` keeps them).  k log p is the
product of a float column of k with them, and the products of the k = 0 and
k = m rows are set to 0 by slicing.  exp is evaluated only where the
log-sum is above -745.2: below log(2^-1075) = -745.13 it returns exactly
0.0, so skipping it changes no bit, and there it runs about 19 times slower
than on ordinary arguments.  So the kernel returns the doubles of the
scipy formulas the references in ``perfbench/reference`` were recorded
with, bit for bit (``tests/oracles.py`` keeps those formulas, and the tests
compare with ``==``), without importing scipy.  ``math.lgamma`` and
``np.log`` would not: the first differs from ``gammaln`` by up to 4 ulp at
about half of the integers 1..20002, and numpy's vectorised log from libm's
in the last bit on 0.3-0.7% of the probabilities, enough to move the
posterior information at m = 5000 off its pin to the mpmath oracle
(``tests/test_mp_oracle.py``).

``tally_pmf_matrix`` computes exactly what it is handed: the rows
k0 <= k < k1 (default: every tally) at the phases ``thetas[cols]``
(default: every phase), in row blocks of at most one workspace block
(one pass for a block's request), into ``out`` or a new array of that
shape, every cell written.  Every entry is computed elementwise, so a range
of rows or a slice of phases is bit for bit the matching part of the full
array; the theta0-grid stages and the posterior tables read such blocks.
Outside the span where the rows can pass the exp cut every cell is an exact
zero however it is computed.  This lets the posterior summary stream a
large-m table in blocks of tallies and work on a narrower window per
block: the part of the span of phases where some row of the block's
posterior lies within ``_PEAK_CUT`` = 100 nats of its peak (more on grids
far finer than 2001 nodes on [0, pi/2], ``_peak_cut``), outside of which no
cell moves a sum by a bit (``_likelihood_windows``).
One pass over four of the block's rows bounds every row from above and
below (``_row_bounds``) and gives both the span and the window.  The
summary passes the window as ``cols``, so it is found once per block, with
an ``out`` array shaped like it, (rows, window width).

The kernels' temporaries (the log-sums and exp mask) are views of the
workspace (``_Workspace``): buffers of ``_BLOCK_CELLS`` cells, allocated
once per process and reused by every block of every sweep row.  A row of
a sweep then writes into pages that are already mapped instead of asking
for arrays a little larger than the last row's, which the allocator served
with fresh pages every time.  That one budget sizes every block pass, the
posterior summary's and the theta0-grid stages', and each block starts on
a multiple of ``_BLAS_ALIGN`` rows (``_block_extent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """Invalid model construction or evaluation request."""


@dataclass(frozen=True)
class PhaseDomain:
    """Closed phase interval [a, b] on which estimation takes place."""

    a: float = 0.0
    b: float = math.pi / 2

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ModelError("domain endpoints must be finite")
        if not self.a < self.b:
            raise ModelError(f"domain requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, theta: float) -> bool:
        return self.a <= theta <= self.b

    def clip(self, theta):
        return np.clip(theta, self.a, self.b)


@dataclass(frozen=True)
class GhzParityModel:
    """Binary-outcome likelihood of an N-qubit GHZ probe with parity readout."""

    n_qubits: int = 2

    def __post_init__(self):
        if not isinstance(self.n_qubits, (int, np.integer)) or self.n_qubits < 1:
            raise ModelError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")

    def prob_plus(self, theta):
        """Single-shot probability of the +1 outcome, in [0, 1]."""
        return (1.0 + np.cos(self.n_qubits * np.asarray(theta, dtype=float))) / 2.0

    def dprob_dtheta(self, theta):
        """Analytic d p(+1|theta) / d theta; the -1 outcome's is its negative."""
        return -(self.n_qubits / 2.0) * np.sin(self.n_qubits * np.asarray(theta, dtype=float))

    def fisher_information(self, theta):
        """Single-shot Fisher information; identically N^2 for this model.

        The direct sum (dp/dtheta)^2 / p over both outcomes cancels to N^2:
        (N^2/4) sin^2(N theta) / (p_+ p_-) with p_+ p_- = sin^2(N theta)/4.
        The reduced form keeps the value finite at the endpoints where the
        quotient is 0/0.
        """
        theta = np.asarray(theta, dtype=float)
        n2 = float(self.n_qubits) ** 2
        if theta.shape == ():
            return n2
        return np.full(theta.shape, n2)


def require_identifiable(model: GhzParityModel, domain: PhaseDomain) -> int:
    """The branch j with N [a, b] inside [j pi, (j+1) pi] (up to 1e-12 pi); else ``ModelError``.

    cos(N theta) is monotone on such a domain, so no two phases give the same
    likelihood.  A domain that contains a multiple of pi/N in its interior
    holds a phase and its mirror image, even when N (b - a) <= pi, so the
    phase is not identifiable and the Barankin-type bounds diverge at the
    aliased offset.
    """
    n = model.n_qubits
    lo, hi = n * domain.a / math.pi, n * domain.b / math.pi
    j = math.floor(lo + 1e-12)
    if hi > j + 1 + 1e-12:
        raise ModelError(
            f"domain [{domain.a!r}, {domain.b!r}] is not identifiable for model.N={n}: "
            f"N*[a, b] = [{n * domain.a!r}, {n * domain.b!r}] lies in no [j*pi, (j+1)*pi]")
    return j


# Stirling's series of cephes ``lgam``: log sqrt(2 pi), and the coefficients for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)


def _lgam(x: float) -> float:
    """log Gamma(x) at an integer 1 <= x <= 1e8, by the operations of cephes ``lgam``."""
    if x < 13.0:
        z, u = 1.0, x - 1.0
        while u >= 2.0:
            z *= u
            u -= 1.0
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


_log_factorial_table = np.zeros(1)      # log n! for n < len; grown, never changed in place


def _log_factorials(m: int) -> np.ndarray:
    """A table of log n! for at least n = 0..m."""
    global _log_factorial_table
    table = _log_factorial_table
    if len(table) <= m:
        n = max(m + 1, 2 * len(table))
        grown = np.empty(n)
        grown[:len(table)] = table
        grown[len(table):] = [_lgam(j + 1.0) for j in range(len(table), n)]
        _log_factorial_table = table = grown
    return table


def log_binomial(m: int, k) -> np.ndarray:
    """log C(m, k) = log m! - log k! - log (m-k)! for integer 0 <= k <= m."""
    lf = _log_factorials(m)
    k = np.asarray(k)
    return lf[m] - lf[k] - lf[m - k]


def _log(p) -> np.ndarray:
    """log p elementwise by ``math.log``, with log 0 = -inf; p must be >= 0."""
    p = np.asarray(p, dtype=float)
    zero = p == 0.0
    flat = np.where(zero, 1.0, p).ravel().tolist()
    out = np.fromiter(map(math.log, flat), float, len(flat)).reshape(p.shape)
    out[zero] = -math.inf
    return out


# (model, phase bytes) -> (log p_+, log p_-); emptied when it reaches _GRID_LOGS_KEPT grids
_grid_log_cache: dict = {}
_GRID_LOGS_KEPT = 32


def _grid_logs(model: GhzParityModel, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p_+ and log p_- at every phase of ``thetas``, computed once per (model, grid).

    Keyed by the phases' bytes, so a sweep that passes the same grid for
    every m pays the 2 len(thetas) ``math.log`` calls once per process.
    """
    key = (model, thetas.tobytes())
    logs = _grid_log_cache.get(key)
    if logs is None:
        pp = model.prob_plus(thetas)
        logs = _log(pp), _log(1.0 - pp)
        for v in logs:
            v.flags.writeable = False
        if len(_grid_log_cache) >= _GRID_LOGS_KEPT:
            _grid_log_cache.clear()
        _grid_log_cache[key] = logs
    return logs


# exp(x) is exactly 0.0 in float64 for every x below log(2^-1075) = -745.1332...
_EXP_ZERO_BELOW = -745.2
# Cells (rows x phases) of one block of every block pass, and of each workspace buffer: 0.5 MB
# per float64 array.
_BLOCK_CELLS = 1 << 16
# A block of rows (or of phases) starts on a multiple of this many, and spans a multiple of it
# unless it ends the matrix.
_BLAS_ALIGN = 16


def _block_extent(length: int, other: int) -> int:
    """How many of the ``length`` rows (or phases) of a ``length`` x ``other`` array a block takes.

    All of them if the array fits in ``_BLOCK_CELLS`` cells, else the largest
    multiple of ``_BLAS_ALIGN`` that fits, at least ``_BLAS_ALIGN`` (which
    takes more cells where ``other`` is above ``_BLOCK_CELLS / _BLAS_ALIGN``)
    and at most ``length``.
    OpenBLAS's gemv sums each row of a block that starts on a multiple of
    ``_BLAS_ALIGN`` rows as it sums that row of the whole matrix (its
    unrolled lanes and its tail fall on the same rows), so a matrix-vector
    product of such blocks gives the whole matrix's doubles; the tests
    compare them with ``==``.
    """
    if length * other <= _BLOCK_CELLS:
        return length
    return min(max(_BLOCK_CELLS // other // _BLAS_ALIGN, 1) * _BLAS_ALIGN, length)


class _Workspace:
    """Scratch arrays reused by every block pass.

    Each named buffer is allocated on first use, with ``_BLOCK_CELLS``
    cells of the dtype asked for, and ``take`` returns a C-contiguous view
    of its first cells.  A larger request, or one of another dtype,
    replaces the buffer once, and the new one is kept, when
    it is a block's: up to twice ``_BLOCK_CELLS`` cells (Ziv-Zakai's six
    per-pair rows on the 201-node theta0 grid, or the averaged risks' least
    block of 16 phases beyond m = 4095), or up to ``_BLAS_ALIGN`` rows of
    any width (the least block, on a grid wider than
    ``_BLOCK_CELLS / _BLAS_ALIGN`` phases).  Any other request past the
    buffer, a whole table's, gets a new array, which is not kept.  So a sweep
    of rows whose blocks grow with m writes into the same pages instead of
    asking the allocator for a slightly larger array, and fresh pages, every
    row.  Only the pages a block writes count towards resident memory.

    A view is valid until the next ``take`` of the same name, and every user
    writes it before reading it, so nothing carries from one use to the
    next.  Every block pass takes its views shaped like the block's window,
    (rows, window width), so a block writes the pages of its window's cells
    and no others.  The names in use, each free again when its user
    returns:

    * "sums" and "mask": the kernel's log-sums and exp mask, one of each
      per block of rows, shaped like that block; then "sums" the score's
      second product, per block of rows (``tally_pmf_dtheta_matrix``);
    * "scratch": the posterior table's density; the blocks of the pmf (or
      of its derivative) that the theta0-grid stages stream
      (``rbound._pmf_row_blocks`` and ``_pmf_column_blocks``), with
      Ziv-Zakai's CDFs;
    * "derivative": the score of ``tally_pmf_dtheta_matrix``, per block of
      rows; the posterior summary's products; then the averaged
      risks' products and score, and Ziv-Zakai's per-pair rows, its
      crossing tallies' temporaries included (as float, with intp views),
      which so land on pages the summary has already written;
    * "zero": Ziv-Zakai's per-pair masks.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size, dtype = math.prod(shape), np.dtype(dtype)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            if size > max(2 * _BLOCK_CELLS, _BLAS_ALIGN * shape[-1]):
                return np.empty(shape, dtype)    # a whole table's: not kept
            self.buffers.pop(name, None)         # freed before its successor is made
            buffer = self.buffers[name] = np.empty(max(size, _BLOCK_CELLS), dtype)
        return buffer[:size].reshape(shape)


_workspace = _Workspace()


def _log_terms(m: int, k: np.ndarray, logpp: np.ndarray, logpm: np.ndarray,
               out: np.ndarray | None = None, rest: np.ndarray | None = None) -> np.ndarray:
    """log C(m, k) + k log p_+ + (m - k) log p_-, one row per tally of ``k``.

    ``k`` is an increasing run of tallies; the products of a k = 0 and a
    k = m row are set to 0 by slicing (0 log 0 = 0, also where p = 0).  The
    sums are added in the order log C + k log p_+, then + (m - k) log p_-.
    ``out`` receives the sums and ``rest`` the second product (new arrays
    when not given).  The outer products by ``einsum`` form each cell by the
    one multiplication ``np.multiply`` broadcast would (but for the sign of
    a zero, which no sum keeps), in about half the time on a block.
    """
    kf = k.astype(float)
    with np.errstate(invalid="ignore"):          # 0 * -inf, overwritten below
        out = np.einsum("i,j->ij", kf, logpp, out=out)
        rest = np.einsum("i,j->ij", m - kf, logpm, out=rest)
    if k[0] == 0:
        out[0] = 0.0
    if k[-1] == m:
        rest[-1] = 0.0
    out += log_binomial(m, k)[:, None]
    out += rest
    return out


def _row_bounds(m: int, k: np.ndarray, logpp: np.ndarray,
                logpm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per phase, an upper and a lower bound on every row of ``_log_terms``, from four rows.

    For each phase the log-sum L is concave in the row (log C(m, k) is), so
    it is at most the tangent bound L(0) + max(0, L(1) - L(0)) (rows - 1)
    from the first two rows, and likewise from the last two; and at least
    min(L(first), L(last)).  A bound of -inf - -inf (rows of p^k at p = 0)
    is taken from the other end, and a phase with no finite upper bound
    (NaN) has only -inf rows.
    """
    rows = len(k)
    pick = sorted({0, min(1, rows - 1), max(rows - 2, 0), rows - 1})
    ends = _log_terms(m, k[pick], logpp, logpm)
    with np.errstate(invalid="ignore"):          # -inf - -inf gives no bound
        rise = np.maximum(ends[min(1, len(pick) - 1)] - ends[0], 0.0)
        fall = np.maximum(ends[max(len(pick) - 2, 0)] - ends[-1], 0.0)
        upper = np.fmin(ends[0] + rise * (rows - 1), ends[-1] + fall * (rows - 1))
    return upper, np.minimum(ends[0], ends[-1])


def _span(keep: np.ndarray) -> tuple[int, int]:
    """The smallest range [lo, hi) of phases that holds every True of ``keep``; (0, 0) if none."""
    kept = np.flatnonzero(keep)
    return (int(kept[0]), int(kept[-1]) + 1) if kept.size else (0, 0)


def _live_span(upper: np.ndarray) -> tuple[int, int]:
    """Phases [lo, hi) outside of which every row of ``_log_terms`` is below the exp cut.

    ``upper`` is the upper bound of ``_row_bounds``.  A phase is live if it
    is above ``_EXP_ZERO_BELOW`` - 1, a margin far beyond rounding; at
    every other phase each cell of exp is exactly 0.
    """
    return _span(upper > _EXP_ZERO_BELOW - 1.0)


def _row_range(m: int, k0: int, k1: int | None) -> tuple[int, int]:
    """Validated tally rows k0 <= k < k1 of m shots; ``k1=None`` means through k = m."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ModelError(f"m must be a nonnegative integer, got {m!r}")
    k1 = m + 1 if k1 is None else k1
    if not 0 <= k0 < k1 <= m + 1:
        raise ModelError(f"tally rows [{k0}, {k1}) must be a nonempty part of [0, {m + 1})")
    return k0, k1


def tally_pmf_matrix(model: GhzParityModel, m: int, thetas, k0: int = 0,
                     k1: int | None = None, *, cols: slice | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Tally probabilities for k0 <= k < k1 (default every k) at the phases ``thetas[cols]``.

    Shape (k1 - k0, len(thetas[cols])), all of ``thetas`` without ``cols``;
    equal bit for bit to those rows and columns of the full (m+1)-row
    matrix; one phase gives one column.  Evaluated in the log domain, so
    large m neither overflows the binomial coefficient nor underflows the
    outcome powers prematurely, and 0 log 0 = 0 makes the deterministic
    channels exact.

    ``cols`` is any slice of phases; the logs of p_+ and p_- are cut from
    the grid's cached ones (``_grid_logs``) of all of ``thetas``.  ``out``,
    an array of the result's shape, receives the matrix and is returned in
    place of a new one; every cell is written.  The rows go through in
    blocks of ``_block_extent`` rows, one pass for a request of one block,
    as every block pass hands it: a block's log-sums and exp mask are
    written into the workspace, its second product into its rows of
    ``out``, which exp then overwrites where a log-sum is above
    ``_EXP_ZERO_BELOW`` and 0.0 fills elsewhere (exp would give exactly 0.0
    there, about 19 times slower).  So a whole large table holds no
    temporary larger than one block.
    """
    thetas = np.asarray(thetas, dtype=float)
    k0, k1 = _row_range(m, k0, k1)
    logpp, logpm = _grid_logs(model, thetas)
    if cols is not None:
        logpp, logpm = logpp[cols], logpm[cols]
    rows, width = k1 - k0, logpp.size
    if out is None:
        out = np.empty((rows, width))
    step = _block_extent(rows, width)
    for r0 in range(0, rows, step):
        block = out[r0:r0 + step]
        sums = _log_terms(m, np.arange(k0 + r0, k0 + r0 + len(block)), logpp, logpm,
                          out=_workspace.take("sums", block.shape), rest=block)
        keep = np.greater(sums, _EXP_ZERO_BELOW, out=_workspace.take("mask", block.shape, bool))
        block.fill(0.0)
        np.exp(sums, out=block, where=keep)
    return out


def tally_pmf_dtheta_matrix(model: GhzParityModel, m: int, thetas, *, cols: slice | None = None,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Analytic d/dtheta of the tally pmf; shape (m+1, len(thetas[cols])).

    The pmf of ``tally_pmf_matrix`` (``cols`` and ``out`` as there) times
    its score, in place, in the kernel's row blocks (``_block_extent``
    rows): each block's score, 0 where p_+ p_- = 0, is formed in the
    workspace at the block's shape, so a whole large table holds no
    temporary larger than one block.
    """
    thetas = np.asarray(thetas, dtype=float)
    phases = thetas if cols is None else thetas[cols]
    out = tally_pmf_matrix(model, m, thetas, cols=cols, out=out)
    step = _block_extent(m + 1, phases.size)
    for r0 in range(0, m + 1, step):
        block = out[r0:r0 + step]
        block *= _score(model, m, np.arange(r0, r0 + len(block)), phases,
                        out=_workspace.take("derivative", block.shape),
                        rest=_workspace.take("sums", block.shape))
    return out


# A column window starts on a multiple of this many phases, and ends on one or at the last phase.
_WINDOW_ALIGN = 64
# The posterior summary keeps, per block of tallies, the phases where some row of the block can lie
# within C nats of its peak (``_likelihood_windows``, which bounds the block's own pmf rows).  A
# dropped cell's term in one of the summary's sums is below e^-C times that sum, times at most:
#   - n dropped cells per row, and 4, the ratio of Simpson's largest and smallest weights;
#   - score^2 / J for the information, which weighs dens * score^2: score = d log(pmf prior)
#     / dtheta reaches m N cot(N h / 2) ~ 2 m / h at a node h from a zero of p_-, where h is the
#     node spacing, against J >= m N^2 / 10, so score^2 / J <= 40 m / (N h)^2; and e^11 for
#     (theta - mean)^2 / variance and theta / mean.
# The information's factors are the largest: 4 * n * 40 m / (N h)^2, or 160 n m / (N h)^2 in all.
# That is e^34.1 for n = 2001 nodes of [0, pi/2] (N h = pi / 2000), N = 2 and m = 5000, where
# J >= 2000 and score = 1.3e7 give score^2 / J = e^25.1.  It is below half an ulp
# (2^-54 = e^-37.4) when C > 37.4 + ln(160 n m / (N h)^2), 71.5 there: no sum of the summary
# moves a bit (Higham 2002, ch. 4).  The cut is this constant, or that bound plus a margin where
# a finer grid or a larger m makes it larger (``_peak_cut``): from about n = 2.2e7 nodes on
# [0, pi/2] at m = 5000.  The tests compare with ``==`` up to m = 5000.
_PEAK_CUT = 100.0


def _peak_cut(model: GhzParityModel, m: int, thetas: np.ndarray) -> float:
    """``_PEAK_CUT``, or the half-ulp bound plus about half a nat where that is larger.

    The bound is the one derived beside ``_PEAK_CUT``, for n phases of
    spacing h and N qubits; ``thetas`` is the posterior grid.
    """
    n = thetas.size
    nh = model.n_qubits * (thetas[-1] - thetas[0]) / (n - 1)
    return max(_PEAK_CUT, 38.0 + math.log(160.0 * n * m) - 2.0 * math.log(nh))


def _aligned(lo: int, hi: int, n: int) -> slice:
    """Phases [lo, hi) widened to start on a multiple of ``_WINDOW_ALIGN`` and end on one or at n."""
    if lo >= hi:
        return slice(0, 0)
    lo -= lo % _WINDOW_ALIGN
    hi = lo - (lo - hi) // _WINDOW_ALIGN * _WINDOW_ALIGN
    return slice(lo, hi if hi <= n - n % _WINDOW_ALIGN else n)


def _likelihood_windows(model: GhzParityModel, m: int, thetas, k0: int, k1: int | None,
                        log_prior: tuple[np.ndarray, np.ndarray]) -> slice:
    """The window of phases that the rows k0 <= k < k1 of a posterior need.

    One ``_row_bounds`` pass over the pmf rows k0 .. k1-1 gives their span:
    every phase where one of those rows can pass the exp cut
    (``_live_span``), so ``tally_pmf_matrix``'s rows k0 <= k < k1 are
    exactly 0 outside it; it is empty if they are 0 at every phase.
    ``log_prior`` is the pair (log prior, the same with each -inf replaced
    by its largest value).  The lower bound plus the log prior, maximised
    over phases, is at most every row's peak: the log-likelihood is concave
    in k, so every row lies above the smaller of the first and last.  The
    window keeps the phases where the upper bound plus the second log prior
    is within the cut (``_peak_cut``) of that floor, so a zero of the prior
    never narrows it by itself; it is cut to the span.  It is the span when
    the floor less the cut is not above the exp cut: dropped cells could
    then reach the subnormal range, where a relative bound says nothing.
    With no shots (m = 0) it is the whole grid.

    It starts on a multiple of ``_WINDOW_ALIGN`` phases and ends on one or
    at the last phase (``_aligned``), as the whole grid does.  With that
    alignment, the OpenBLAS gemv kernels behind numpy's matrix-vector
    product add each row's nonzero terms over the window in the same order
    as over the whole row: their unrolled lanes and their scalar tail fall
    on the same columns, whether the window's rows are a contiguous
    (rows, window width) array, as the posterior table and summary hold
    them, or the columns of whole rows.  The tests check this bit for bit
    on the 2001-node grid.  Rows longer than 2048 are split by those
    kernels into blocks of 2048 columns, which a window shifts; there the
    window's sums agree with whole-row sums only to rounding.
    """
    thetas = np.asarray(thetas, dtype=float)
    k0, k1 = _row_range(m, k0, k1)
    n = thetas.size
    if m == 0:
        return slice(0, n)
    upper, lower = _row_bounds(m, np.arange(k0, k1), *_grid_logs(model, thetas))
    lo, hi = _live_span(upper)
    log_p, log_p_top = log_prior
    floor = np.max(lower + log_p) - _peak_cut(model, m, thetas)
    if not floor > _EXP_ZERO_BELOW:
        return _aligned(lo, hi, n)
    band_lo, band_hi = _span(upper + log_p_top >= floor)   # NaN (only -inf rows): not kept
    return _aligned(max(lo, band_lo), min(hi, band_hi), n)


def _score_factor(model: GhzParityModel, thetas: np.ndarray) -> np.ndarray:
    """c = p_+' / (p_+ p_-) at every phase; 0, the exact limit, where p_+ p_- = 0.

    There the pmf is 0 on every row but one, and p_+' is 0 (p_+ = 1) or a
    rounding residue (p_+ = 0; -1.2e-16 at pi/2 for N = 2).
    """
    pp = model.prob_plus(thetas)
    both = pp * (1.0 - pp)
    return np.divide(model.dprob_dtheta(thetas), both, out=np.zeros_like(both),
                     where=both != 0.0)


def _score(model: GhzParityModel, m: int, k: np.ndarray, thetas, out: np.ndarray | None = None,
           rest: np.ndarray | None = None) -> np.ndarray:
    """d/dtheta log pmf(k | theta) = c (k p_- - (m - k) p_+), with c of ``_score_factor``.

    p_- = 1 - p_+, as the kernel takes it; c (k - m p_+) would round m p_+
    first.  ``out`` receives the score and ``rest`` the second product.
    """
    thetas = np.asarray(thetas, dtype=float)
    pp = model.prob_plus(thetas)
    kf = np.asarray(k, dtype=float)
    out = np.einsum("i,j->ij", kf, 1.0 - pp, out=out)
    out -= np.einsum("i,j->ij", m - kf, pp, out=rest)
    out *= _score_factor(model, thetas)
    return out
