"""The point walk of `ncpoint.points` as it was over Fractions: the
differential oracle for the integer walk.

Every point is stored with its first nonzero coordinate 1, relations and
g keep their Fraction coefficients, window rows and lambda values are
Fractions, and the lambda prune re-checks every window at every node.
Walk order, rng draws and reports are meant to be the same as the
package's, so the report lines of both must match byte for byte
(tests/test_points.py::TestWalkReference).  Only the report records,
their formatting and the kernel come from the package; the Fraction
polynomials and the Fraction-pair RatFunc of the Q(t) points come from
tests/ratfunc_reference.py.  The package's scalars come in through its
`reference`: the relation coefficients as a window reads them, the
points handed to a public function, and the kernel of a fiber.  Points,
lambdas and special values go back out through its `package`.
"""

from fractions import Fraction
from random import Random

from ncpoint.freealg import NCPoly, Presentation, coefficients_use_t
from ncpoint.linalg import kernel_basis_tracking_pivots, row
from ncpoint.points import (
    FIBER_SAMPLE_COUNT,
    MAX_FIBER_DIM,
    CompareReport,
    ProjLinearFiber,
    SamplingError,
    StabilizeReport,
    TorsionfreeReport,
    format_point,
)
from ncpoint.scalars import SpecializationError
from ratfunc_reference import (
    RatFunc,
    euclid_gcd,
    make_ratfunc,
    package,
    parts,
    poly_divmod,
    poly_eval,
    poly_mul,
    reference,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RANDOM_SPAN = 99
Point = tuple
_DESPECIALIZE_VALUES = [Fraction(v) for v in
                        [1, 2, 3, -1, -2, 5, 7, -3, 11, 13] + list(range(17, 81))]
T = make_ratfunc((_ZERO, _ONE), (_ONE,))


def uses_t(c) -> bool:
    return isinstance(c, RatFunc)


def normalize_point(vec):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    vec = tuple(vec)
    lead = None
    for c in vec:
        if c:
            lead = c
            break
    if lead is None:
        return None
    return tuple(c / lead for c in vec)


def coordinate_points(k: int):
    return [normalize_point(tuple(_ONE if i == j else _ZERO for j in range(k)))
            for i in range(k)]


def random_rational_point(k: int, rng: Random) -> Point:
    while True:
        vec = tuple(Fraction(rng.randint(-_RANDOM_SPAN, _RANDOM_SPAN)) for _ in range(k))
        p = normalize_point(vec)
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

def _window_row(f: NCPoly, pts, i: int, k: int):
    """The window of f starting at i as a linear form in its last point:
    its k coefficients, with the points before the last substituted."""
    row = [_ZERO] * k
    for w, c in reference(f.terms).items():
        prod = c
        for step in range(len(w) - 1):
            prod = prod * pts[i + step][w[-1 - step]]
            if not prod:
                break
        if prod:
            row[w[0]] = row[w[0]] + prod
    return row


def window_value(poly: NCPoly, pts, i: int):
    """Evaluate a homogeneous polynomial's multilinear window starting at i."""
    pts = reference(pts)
    last = pts[i + poly.degree() - 1]
    row = _window_row(poly, pts, i, len(last))
    return sum((a * b for a, b in zip(row, last) if a and b), _ZERO)


def is_truncated_point_module(pres: Presentation, pts):
    """All relation windows vanish exactly; returns (ok, first violation).

    The violation is (relation index, window start) or None.
    """
    pts = [tuple(p) for p in reference(pts)]
    for p in pts:
        if normalize_point(p) is None:
            raise ValueError("points must be nonzero")
        if len(p) != pres.num_generators:
            raise ValueError("point arity does not match the generator count")
    for ridx, f in enumerate(pres.relations):
        e = f.degree()
        for i in range(0, len(pts) - e + 1):
            if window_value(f, pts, i):
                return False, (ridx, i)
    return True, None


def extension_fiber(pres: Presentation, pts) -> ProjLinearFiber:
    """Kernel of the windows ending at the new position, each read as a
    linear form in the new point: one row per window.

    Over Q(t) the fiber also carries the special rational t-values where
    the constraint matrix may drop rank.
    """
    k = pres.num_generators
    d1 = len(pts) + 1
    pts = reference(pts)
    rows = [row(dict(enumerate(package(_window_row(f, pts, d1 - f.degree(), k)))))
            for f in pres.relations if f.degree() <= d1]
    basis, specials = reference(kernel_basis_tracking_pivots(rows, k))
    # over Q the package's basis is ints, which the walk divides as Fractions
    return ProjLinearFiber([[_ONE * c for c in v] for v in basis], specials)


def g_action_scalars(pres: Presentation, g: NCPoly, pts):
    """The scalars lambda_{i+n} with g . m_i = lambda_{i+n} m_{i+n}, as
    the package's scalars."""
    return package(_g_action_scalars(pres, g, reference(pts)))


def _g_action_scalars(pres: Presentation, g: NCPoly, pts):
    n = g.degree()
    if n is None or n < 1:
        raise ValueError("g must be homogeneous of degree >= 1")
    d = len(pts)
    if d < n:
        raise ValueError(f"sequence of {d} points is too short for deg g = {n}")
    return [window_value(g, pts, i) for i in range(0, d - n + 1)]


def is_g_torsionfree_truncated(pres: Presentation, g: NCPoly, pts) -> bool:
    return all(lam for lam in _g_action_scalars(pres, g, reference(pts)))


# ---------------------------------------------------------------------------
# specialization of Q(t) sequences
# ---------------------------------------------------------------------------

def _poly_lcm(a, b):
    g = euclid_gcd(a, b)
    return poly_mul(a, poly_divmod(b, g)[0])


def specialize_point(p, value: Fraction):
    """Evaluate a projective point at t = value.

    Away from the poles of its coordinates this is plain evaluation.  At
    a pole the denominators are cleared first; elsewhere the two agree,
    as the lcm of the denominators is then a nonzero common scale."""
    try:
        return normalize_point(c.eval_at(value) if uses_t(c) else c for c in p)
    except SpecializationError:
        pass
    common = (_ONE,)
    for c in p:
        common = _poly_lcm(common, parts(c)[1])
    coords = []
    for c in p:
        num, den = parts(c)
        extra = poly_divmod(common, den)[0]
        coords.append(poly_eval(poly_mul(num, extra), value))
    return normalize_point(coords)


def specialize_points(pts, value: Fraction):
    """Specialize a whole sequence; None when any point degenerates to zero."""
    out = []
    for p in pts:
        sp = specialize_point(p, value)
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
    the sequence is still t-free).
    """
    basis = fiber.basis
    if not basis:
        return [], True
    if len(basis) == 1:
        return [normalize_point(basis[0])], True
    if generic and len(basis) == 2 and not points_use_t(pts):
        b0, b1 = basis
        pencil = normalize_point([a + T * b for a, b in zip(b0, b1)])
        return [pencil, normalize_point(b1)], True
    cands = []
    seen = set()
    for b in basis:
        p = normalize_point(b)
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    tries = 0
    while len(cands) < FIBER_SAMPLE_COUNT and tries < 8 * FIBER_SAMPLE_COUNT:
        tries += 1
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        vec = [sum((c * b[i] for c, b in zip(coeffs, basis)), _ZERO)
               for i in range(len(basis[0]))]
        p = normalize_point(vec)
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    return cands, False


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
    avoid = [poly for poly in avoid + [parts(c)[1] for p in pts for c in p] if poly]
    for value in _DESPECIALIZE_VALUES:
        if all(poly_eval(poly, value) for poly in avoid):
            concrete = specialize_points(pts, value)
            if concrete is not None:
                return concrete if is_truncated_point_module(pres, concrete)[0] else None
    return None


def _children(pres, pts, rng, report, generic, shuffle):
    """The children of `pts` in the walk, lazily: first `pts` extended by
    each candidate of its extension fiber; then, once their subtrees are
    used up, `pts` specialized at each special t-value of the fiber
    (where the fiber may be larger) that leaves a module."""
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
        yield [*pts, cand]
    values = list(fiber.special_values)
    report.special_values.update(package(values))
    if shuffle:
        rng.shuffle(values)
    for value in values:
        specialized = specialize_points(pts, value)
        if specialized is not None and is_truncated_point_module(pres, specialized)[0]:
            yield specialized


def _walk(pres, pts, target, rng, report, *, prune, leaf, generic, shuffle,
          budget):
    """Depth-first walk up the inverse system of truncated point schemes:
    extend `pts` through its extension fibers to the first sequence of
    `target` points that `leaf` turns into a result.

    `prune(pts)` cuts a branch, `budget` is the number of fiber nodes to
    expand, and `shuffle` visits candidates and special t-values in
    random order.  The stack holds one `_children` generator per open
    node, so the walk's depth is not bounded by Python's recursion limit.
    Fiber dimensions, special values and sampled fibers go to `report`.
    """
    stack = [iter([pts])]
    while stack:
        pts = next(stack[-1], None)
        if pts is None:
            stack.pop()
            continue
        if prune(pts):
            continue
        if len(pts) == target:
            found = leaf(pts)
            if found is not None:
                return found
        elif budget > 0:
            budget -= 1
            stack.append(_children(pres, pts, rng, report, generic, shuffle))
    return None


def _torsionfree_dfs(pres, g, pts, target, generic, rng, report):
    """Walk from one seed to a g-torsionfree sequence, in candidate order
    and without a node budget.  A Q(t) leaf is specialized at a t-value
    that keeps every lambda nonzero; every leaf is checked again to be a
    g-torsionfree module."""
    n = g.degree()

    def prune(pts):
        return len(pts) >= n and not is_g_torsionfree_truncated(pres, g, pts)

    def leaf(pts):
        if points_use_t(pts):
            pts = _leaf(pres, pts, [parts(lam)[0] for lam in _g_action_scalars(pres, g, pts)])
        elif not is_truncated_point_module(pres, pts)[0]:
            return None
        return pts if pts is not None and is_g_torsionfree_truncated(pres, g, pts) else None

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
    counts = {}
    for kind, seed_pt in seeds:
        counts[kind] = counts.get(kind, 0) + 1
        found = _torsionfree_dfs(pres, g, [seed_pt], target, generic, rng, report)
        if found is not None:
            report.found = package(found)
            report.found_seed = f"{kind} {format_point(package(seed_pt))}"
            break
    report.seeds_tried = counts
    return report


def _sample_dfs(pres, pts, target, rng, budget):
    """Walk from one seed to any valid sequence, in random order and
    within `budget` fiber nodes."""
    return _walk(pres, pts, target, rng, TorsionfreeReport(target + 1),
                 prune=lambda pts: False, leaf=lambda pts: _leaf(pres, pts, []),
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
    return package(out)


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

