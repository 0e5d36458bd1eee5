"""Truncated point modules as projective point sequences.

Conventions (pinned here and relied on by every check):

* A sequence of d points encodes a module with d+1 one-dimensional
  components, one point per action step; "module length" always means
  d + 1.
* Left modules with x_j . m_i = p^{(i+1)}_j m_{i+1}: a word acts
  rightmost letter first, so a word w = x_{j_1} ... x_{j_e} applied at
  window i contributes  c_w * prod_{t=1..e} p^{(i+t)}_{j_{e+1-t}}.
* A point of the walk over Q is a primitive integer vector: gcd 1, first
  nonzero entry positive.  A point over Q(t) keeps Rational and RatFunc
  coordinates, with its first nonzero coordinate 1.  Both print in the
  first-coordinate-1 form (`format_point`).
* A window is read as a linear form in its last point; its value and
  the rows of an extension fiber both come from that one form.  The walk
  reads every relation, and g, through its window form, derived once
  (`freealg.window_form`): the words with coefficients over Q scaled to
  primitive integers, which keeps each window's zero set, so that
  windows of Q points are ints.

Propagation works over Q, and over Q(t) for generic arguments: a fiber
of projective dimension one is parametrized as b0 + t b1 (plus the
point b1 itself).  Every fiber is one call of linalg's pivot-tracking
kernel on the window rows, which stops at full column rank.  Rows free
of t, those of every Q walk, are eliminated in ints and give int basis
vectors; over Q(t), polynomial on the pencil, the rational roots of
every pivot met are special values re-checked over Q.  A Q(t) sequence
specializes to primitive integer points; the walk reads its coordinates
and lambdas as integer pairs (`int_pair`), and at a pole only the
coordinates whose pole there has the highest order stay nonzero
(`_evaluate`).
"""

from random import Random

from .freealg import NCPoly, Presentation, coefficients_use_t, window_form
from .linalg import kernel_basis_tracking_pivots, row
from .scalars import (
    Rational,
    int_pair,
    poly_eval,
    primitive_integers,
    scalar_to_str,
    SpecializationError,
    T,
    uses_t,
)

_ONE = Rational(1)
_RANDOM_SPAN = 99  # coordinates of a random rational point lie in [-99, 99]
# rational t-values tried, in order, to specialize a free parameter
_DESPECIALIZE_VALUES = [Rational(v) for v in
                        [1, 2, 3, -1, -2, 5, 7, -3, 11, 13] + list(range(17, 81))]

MAX_FIBER_DIM = 4  # a walk abandons fibers of higher projective dimension
FIBER_SAMPLE_COUNT = 6  # candidates drawn from a fiber it cannot exhaust

Point = tuple


class SamplingError(RuntimeError):
    """Module sampling found nothing from any seed."""


def normalize_point(vec):
    """Scale so the first nonzero coordinate is 1; None for the zero
    vector.  Int coordinates come back as Rationals."""
    vec = tuple(vec)
    for lead in vec:
        if lead:
            if isinstance(lead, int):
                lead = Rational(lead)
            return tuple(c / lead for c in vec)
    return None


def _primitive(vec):
    """The primitive integer vector of a nonzero vector over Q; None for
    the zero vector."""
    for lead in vec:
        if lead:
            return primitive_integers(vec, negate=lead < 0)[0]
    return None


def _as_point(vec):
    """A vector as a walk point: primitive over Q, first-coordinate-1 over
    Q(t); None for the zero vector."""
    return normalize_point(vec) if any(uses_t(c) for c in vec) else _primitive(vec)


def coordinate_points(k: int):
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def random_rational_point(k: int, rng: Random) -> Point:
    while True:
        p = _primitive([rng.randint(-_RANDOM_SPAN, _RANDOM_SPAN) for _ in range(k)])
        if p is not None:
            return p


def generic_point(k: int) -> Point:
    """(1 : t : t^2 : ...) - a generic parameter curve through P^(k-1)."""
    coords = [_ONE]
    cur = _ONE
    for _ in range(k - 1):
        cur = cur * T
        coords.append(cur)
    return tuple(coords)


def points_use_t(pts) -> bool:
    return any(uses_t(c) for p in pts for c in p)


# ---------------------------------------------------------------------------
# multilinear window evaluation
# ---------------------------------------------------------------------------

def _row(terms, window, k: int):
    """A window as a linear form in its last point: its k coefficients,
    with the points of `window`, the ones before the last, substituted."""
    row = [0] * k
    for letters, c in terms:
        for p, j in zip(window, letters):
            c = c * p[j]
            if not c:
                break
        else:
            row[letters[-1]] += c
    return row


def _value(form, pts, i: int):
    """The value of a window form on the window of pts starting at i."""
    e, terms = form
    last = pts[i + e - 1]
    row = _row(terms, pts[i:i + e - 1], len(last))
    return sum([a * b for a, b in zip(row, last) if a and b])


def is_truncated_point_module(pres: Presentation, pts):
    """All relation windows vanish exactly; returns (ok, first violation).

    The violation is (relation index, window start) or None.
    """
    pts = [tuple(p) for p in pts]
    for p in pts:
        if not any(p):
            raise ValueError("points must be nonzero")
        if len(p) != pres.num_generators:
            raise ValueError("point arity does not match the generator count")
    for ridx, form in enumerate(pres.forms):
        for i in range(0, len(pts) - form[0] + 1):
            if _value(form, pts, i):
                return False, (ridx, i)
    return True, None


class ProjLinearFiber:
    """Solution subspace for the next point of a sequence."""

    def __init__(self, basis: list, special_values: list):
        self.basis = basis
        self.special_values = special_values

    @property
    def empty(self) -> bool:
        return not self.basis

    @property
    def proj_dim(self) -> int:
        return len(self.basis) - 1  # -1 signals the empty fiber


def extension_fiber(pres: Presentation, pts) -> ProjLinearFiber:
    """Kernel of the windows ending at the new position, each read as a
    linear form in the new point: one row per window, all eliminated by
    the pivot-tracking kernel.  Over Q the basis vectors are ints and
    there are no special values; over Q(t) the fiber also carries the
    special rational t-values where the constraint matrix may drop rank.
    The free coordinate of a basis vector is its last nonzero entry.
    """
    k = pres.num_generators
    d1 = len(pts) + 1
    rows = [row(dict(enumerate(_row(terms, pts[d1 - e:], k))))
            for e, terms in pres.forms if e <= d1]
    return ProjLinearFiber(*kernel_basis_tracking_pivots(rows, k))


# ---------------------------------------------------------------------------
# specialization of Q(t) sequences
# ---------------------------------------------------------------------------

def _pole(d, value: Rational):
    """The order m of value as a root of the polynomial d != 0, and the
    value there of d / (t - value)^m."""
    m = 0
    while True:
        acc, quo = 0, []  # synthetic division by t - value, high degree first
        for c in reversed(d):
            acc = acc * value + c
            quo.append(acc)
        if quo[-1]:
            return m, quo[-1]
        d, m = quo[-2::-1], m + 1


def _evaluate(p, value: Rational):
    """The coordinates of p at t = value, up to one common nonzero scale.

    Away from the poles of its coordinates this is plain evaluation.  At
    a pole, the coordinates whose pole there has the highest order give
    their leading Laurent coefficient and the others 0: the point that
    clearing all denominators, by their lcm, and then evaluating gives."""
    try:
        return [c.eval_at(value) if uses_t(c) else c for c in p]
    except SpecializationError:
        pass
    leads = []
    for c in p:
        n, d = int_pair(c)
        m, rest = _pole(d, value)
        leads.append((m, poly_eval(n, value) / rest))
    top = max(m for m, _ in leads)
    return [c if m == top else 0 for m, c in leads]


def specialize_points(pts, value: Rational):
    """Specialize a whole sequence to primitive integer points; None when
    any point degenerates to zero."""
    out = []
    for p in pts:
        sp = _primitive(_evaluate(p, value))
        if sp is None:
            return None
        out.append(sp)
    return out


# ---------------------------------------------------------------------------
# candidate generation inside a fiber
# ---------------------------------------------------------------------------

def _fiber_candidates(fiber: ProjLinearFiber, pts, generic: bool, rng: Random):
    """Candidate next points plus an exhaustiveness verdict.

    Exhaustive cases: the empty fiber, a projective point, and a pencil
    parametrized generically as b0 + t b1 together with b1 (valid when
    the sequence is still t-free).  A basis is linalg's kernel readout,
    the reduced row echelon basis times one common positive int, so its
    points and random combinations are the same projective points as
    those of the reduced row echelon basis.
    """
    basis = fiber.basis
    if not basis:
        return [], True
    if len(basis) == 1:
        return [_as_point(basis[0])], True
    if generic and len(basis) == 2 and not points_use_t(pts):
        b0, b1 = basis
        pencil = normalize_point([a + T * b for a, b in zip(b0, b1)])
        return [pencil, _primitive(b1)], True
    cands = []
    seen = set()
    for b in basis:
        p = _as_point(b)
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    tries = 0
    while len(cands) < FIBER_SAMPLE_COUNT and tries < 8 * FIBER_SAMPLE_COUNT:
        tries += 1
        coeffs = [rng.randint(-5, 5) for _ in basis]
        p = _as_point([sum([c * b[i] for c, b in zip(coeffs, basis)])
                       for i in range(len(basis[0]))])
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    return cands, False


# ---------------------------------------------------------------------------
# torsionfree search
# ---------------------------------------------------------------------------

class TorsionfreeReport:
    def __init__(self, length: int):
        self.length = length
        self.found = None
        self.found_seed = ""
        self.seeds_tried = {}
        self.fiber_dims_seen = set()
        self.special_values = set()
        self.sampled_not_exhaustive = False
        self.budget_events = 0

    def lines(self):
        out = [f"target module length: {self.length}"]
        for kind, count in self.seeds_tried.items():
            out.append(f"seeds ({kind}): {count}")
        out.append("fiber projective dimensions met: "
                   + (", ".join(str(d) for d in sorted(self.fiber_dims_seen)) or "none"))
        out.append("special t values branched numerically: "
                   + (", ".join(str(v) for v in sorted(self.special_values)) or "none"))
        if self.sampled_not_exhaustive:
            out.append("warning: a positive-dimensional fiber was sampled, not exhausted")
        if self.budget_events:
            out.append(f"budget: {self.budget_events} fibers exceeded the dimension bound")
        if self.found is None:
            out.append("result: empty (no truncated g-torsionfree module found)")
        else:
            out.append(f"result: found from seed {self.found_seed}")
        return out


def _reject_t_coefficients(polys):
    """The walks read t as the parameter of their Q(t) pencil."""
    if coefficients_use_t(polys):
        raise ValueError("point walks need coefficients over Q: t is their pencil parameter")


def _leaf(pres, pts, avoid):
    """A finished walk: a Q sequence as it is; a Q(t) sequence specialized
    at the first t-value of _DESPECIALIZE_VALUES where no coordinate
    denominator and no polynomial of `avoid` vanishes and no point
    degenerates, if the result is a module."""
    if not points_use_t(pts):
        return list(pts)
    avoid = [poly for poly in avoid + [int_pair(c)[1] for p in pts for c in p] if poly]
    for value in _DESPECIALIZE_VALUES:
        if all(poly_eval(poly, value) for poly in avoid):
            concrete = specialize_points(pts, value)
            if concrete is not None:
                return concrete if is_truncated_point_module(pres, concrete)[0] else None
    return None


def _children(pres, pts, rng, report, generic, shuffle):
    """The children of `pts` in the walk, lazily, each with the index of
    its first new point: first `pts` extended by each candidate of its
    extension fiber; then, once their subtrees are used up, `pts`
    specialized at each special t-value of the fiber (where the fiber may
    be larger) that leaves a module, every point new."""
    fiber = extension_fiber(pres, pts)
    report.fiber_dims_seen.add(fiber.proj_dim)
    if fiber.proj_dim > MAX_FIBER_DIM:
        report.budget_events += 1
        return
    candidates, exhaustive = _fiber_candidates(fiber, pts, generic, rng)
    if not exhaustive and candidates:
        report.sampled_not_exhaustive = True
    if shuffle:
        rng.shuffle(candidates)
    for cand in candidates:
        yield [*pts, cand], len(pts)
    values = list(fiber.special_values)
    report.special_values.update(values)
    if shuffle:
        rng.shuffle(values)
    for value in values:
        specialized = specialize_points(pts, value)
        if specialized is not None and is_truncated_point_module(pres, specialized)[0]:
            yield specialized, 0


def _walk(pres, pts, target, rng, report, *, prune, leaf, generic, shuffle,
          budget):
    """Depth-first walk up the inverse system of truncated point schemes:
    extend `pts` through its extension fibers to the first sequence of
    `target` points that `leaf` turns into a result.

    `prune(pts, fresh)` cuts a branch whose points from index `fresh` on
    are new (the others passed `prune` in the parent), `budget` is the
    number of fiber nodes to expand, and `shuffle` visits candidates and
    special t-values in random order.  The stack holds one `_children`
    generator per open node, so the walk's depth is not bounded by
    Python's recursion limit.  Fiber dimensions, special values and
    sampled fibers go to `report`.
    """
    stack = [iter([(pts, 0)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        pts, fresh = node
        if prune(pts, fresh):
            continue
        if len(pts) == target:
            found = leaf(pts)
            if found is not None:
                return found
        elif budget > 0:
            budget -= 1
            stack.append(_children(pres, pts, rng, report, generic, shuffle))
    return None


def _torsionfree_dfs(pres, form, pts, target, generic, rng, report):
    """Walk from one seed to a torsionfree sequence for g of window form
    `form`, in candidate order and without a node budget.  A branch is cut
    at its first lambda that vanishes; a node checks only the lambdas whose
    window has a new point.  A Q(t) leaf is specialized at a t-value that
    keeps every lambda nonzero; every leaf is checked again to be a
    g-torsionfree module."""
    n = form[0]

    def lambdas(pts, fresh=0):
        return [_value(form, pts, i) for i in range(max(0, fresh - n + 1), len(pts) - n + 1)]

    def prune(pts, fresh):
        return not all(lambdas(pts, fresh))

    def leaf(pts):
        if points_use_t(pts):
            pts = _leaf(pres, pts, [int_pair(lam)[0] for lam in lambdas(pts)])
        elif not is_truncated_point_module(pres, pts)[0]:
            return None
        return pts if pts is not None and all(lambdas(pts)) else None

    return _walk(pres, pts, target, rng, report, prune=prune, leaf=leaf,
                 generic=generic, shuffle=False, budget=float("inf"))


def torsionfree_search(pres: Presentation, g: NCPoly, length: int, *,
                       random_seeds: int = 0, generic: bool = True,
                       seed: int = 0) -> TorsionfreeReport:
    """Depth-first search for a truncated g-torsionfree module of the
    given module length, over coordinate seeds, random rational seeds,
    and optionally the generic Q(t) seed."""
    n = g.degree()
    if n is None or n < 1:
        raise ValueError("g must be homogeneous of degree >= 1")
    if length < n + 1:
        raise ValueError(f"module length must be at least n + 1 = {n + 1}")
    _reject_t_coefficients(pres.relations + (g,))
    rng = Random(seed)
    k = pres.num_generators
    target = length - 1
    report = TorsionfreeReport(length)
    seeds = [("coordinate", p) for p in coordinate_points(k)]
    seeds += [("random", random_rational_point(k, rng)) for _ in range(random_seeds)]
    if generic:
        seeds.append(("generic", generic_point(k)))
    form = window_form(g)
    counts = {}
    for kind, seed_pt in seeds:
        counts[kind] = counts.get(kind, 0) + 1
        found = _torsionfree_dfs(pres, form, [seed_pt], target, generic, rng, report)
        if found is not None:
            report.found = found
            report.found_seed = f"{kind} {format_point(seed_pt)}"
            break
    report.seeds_tried = counts
    return report


def format_point(p) -> str:
    """A point's coordinates; an integer point in its first-coordinate-1 form."""
    if all(isinstance(c, int) for c in p):
        p = normalize_point(p)
    return "(" + ":".join(scalar_to_str(c) for c in p) + ")"


def fiber_point(vec) -> Point:
    """A fiber basis vector scaled so that its free coordinate, its last
    nonzero entry, is 1: the form in which a fiber is reported."""
    return normalize_point(vec[::-1])[::-1]


def format_points(pts) -> str:
    return " ".join(format_point(p) for p in pts)


# ---------------------------------------------------------------------------
# module sampling
# ---------------------------------------------------------------------------

def _sample_dfs(pres, pts, target, rng, budget):
    """Walk from one seed to any valid sequence, in random order and
    within `budget` fiber nodes."""
    return _walk(pres, pts, target, rng, TorsionfreeReport(target + 1),
                 prune=lambda pts, fresh: False, leaf=lambda pts: _leaf(pres, pts, []),
                 generic=True, shuffle=True, budget=budget)


def sample_modules(pres: Presentation, num_points: int, count: int, rng: Random):
    """Up to `count` valid point sequences of the given length, found by
    seeded propagation from random starting points."""
    _reject_t_coefficients(pres.relations)
    out = []
    seen = set()
    attempts = 0
    k = pres.num_generators
    while len(out) < count and attempts < 20 * count + 50:
        attempts += 1
        seed_pt = random_rational_point(k, rng)
        found = _sample_dfs(pres, [seed_pt], num_points, rng, 64)
        if found is None:
            continue
        key = tuple(tuple(p) for p in found)
        if key in seen:
            continue
        seen.add(key)
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# point-set comparison and stabilization evidence
# ---------------------------------------------------------------------------

class CompareReport:
    def __init__(self, num_points: int):
        self.num_points = num_points
        self.left_sampled = 0
        self.right_sampled = 0
        self.left_only = []
        self.right_only = []

    def lines(self):
        out = [f"sequence length compared: {self.num_points}",
               f"left modules sampled: {self.left_sampled}",
               f"right modules sampled: {self.right_sampled}",
               f"left-only (fail on the right): {len(self.left_only)}",
               f"right-only (fail on the left): {len(self.right_only)}"]
        for pts in self.left_only[:3]:
            out.append(f"  left-only example: {format_points(pts)}")
        for pts in self.right_only[:3]:
            out.append(f"  right-only example: {format_points(pts)}")
        return out


def compare_point_sets(pres_left: Presentation, pres_right: Presentation,
                       num_points: int, samples: int, rng: Random) -> CompareReport:
    """Sample truncated modules of each presentation and cross-check
    membership in the other; counts the one-sided failures."""
    if pres_left.num_generators != pres_right.num_generators:
        raise ValueError("presentations must share the generator count")
    report = CompareReport(num_points)
    left = sample_modules(pres_left, num_points, samples, rng)
    right = sample_modules(pres_right, num_points, samples, rng)
    if not left or not right:
        raise SamplingError("sampling failure: a side produced no modules")
    report.left_sampled = len(left)
    report.right_sampled = len(right)
    for pts in left:
        ok, _ = is_truncated_point_module(pres_right, pts)
        if not ok:
            report.left_only.append(pts)
    for pts in right:
        ok, _ = is_truncated_point_module(pres_left, pts)
        if not ok:
            report.right_only.append(pts)
    return report


class StabilizeReport:
    def __init__(self):
        self.per_length = {}

    @property
    def ok(self) -> bool:
        return all(row["positive_dim"] == 0 and row["shift_failures"] == 0
                   for row in self.per_length.values())

    def lines(self):
        out = []
        for d, row in sorted(self.per_length.items()):
            out.append(
                f"length {d}: samples={row['samples']} singleton={row['singleton']} "
                f"empty={row['empty']} positive-dim={row['positive_dim']} "
                f"shift-failures={row['shift_failures']}")
        out.append("stabilization evidence: " + ("pass" if self.ok else "FAIL"))
        return out


def stabilization_check(pres: Presentation, d0: int, d_top: int, samples: int,
                        rng: Random) -> StabilizeReport:
    """For sampled sequences of each length in [d0, d_top): the extension
    fiber must be a single projective point (or empty), and the shifted
    sequence must remain a valid module."""
    if d0 < 1 or d_top <= d0:
        raise ValueError("need 1 <= d0 < D: the lengths d0..D-1 are checked")
    report = StabilizeReport()
    for d in range(d0, d_top):
        row = {"samples": 0, "singleton": 0, "empty": 0, "positive_dim": 0,
               "shift_failures": 0}
        mods = sample_modules(pres, d, samples, rng)
        if not mods:
            raise SamplingError(f"sampling failure at length {d}")
        for pts in mods:
            row["samples"] += 1
            fiber = extension_fiber(pres, pts)
            if fiber.empty:
                row["empty"] += 1
            elif fiber.proj_dim == 0:
                row["singleton"] += 1
            else:
                row["positive_dim"] += 1
            if len(pts) >= 2:
                ok, _ = is_truncated_point_module(pres, pts[1:])
                if not ok:
                    row["shift_failures"] += 1
        report.per_length[d] = row
    return report
