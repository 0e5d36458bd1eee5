"""Command-line dispatch.

Each subcommand declares its arguments once, in its `_*_args` function.
A run's argv is read off that table (`read_argv`) when it has the common
shape: the subcommand, its positionals, then exact long options, each
once, as "--name value" or "--name=value", a flag bare.  Argparse, built
from the same table, reads any other argv: help, errors, and every other
form it accepts, all of which still work.

Exit codes: 0 when every requested check passes, 1 for a verified
mathematical failure, 2 for usage, parse, or resource errors, 3 when an
internal invariant check fails or the recursion limit is hit.  The
subcommands only fill the report; 0 or 1 is read off its verdict.

The module body ends with `gc.freeze()`, so neither a run's collections
nor those at exit scan again what import built, which lives until exit
anyway.  Collection stays on and only import-time objects are frozen, so
a run's own cycles are collected as before.
"""

import gc
import sys
import time
from random import Random
from types import SimpleNamespace

from .freealg import ParseError, Presentation, parse_algebra, parse_poly, poly_to_str
from .quotient import (
    BudgetError,
    DEFAULT_WORD_BUDGET,
    DegreeCapError,
    InvariantError,
    QuotientCache,
    hilbert,
    minimal_relation_degrees,
)
from .reports import RunReport, shell_quote
from .scalars import ScalarParseError, parse_scalar, scalar_to_str

INVARIANT_FAILURE = 3
USAGE_ERROR = 2
MATH_FAILURE = 1


def default_cap(num_generators: int) -> int:
    return 8 if num_generators <= 2 else 5


def _load_input(kind: str, path: str, report: RunReport):
    """Read, digest and parse one input file.  `kind` is "algebra",
    "colorlie", or "either": a .cl file then holds a color Lie algebra
    and any other file an algebra."""
    with open(path, "rb") as f:
        data = f.read()
    report.digest_input(path, data)
    if kind == "colorlie" or (kind == "either" and path.endswith(".cl")):
        from .colorlie import parse_colorlie
        return parse_colorlie(data.decode())
    return parse_algebra(data.decode())


def _unwrap(chunk: str) -> str:
    """chunk without its outer parentheses, when its first '(' closes at its end."""
    depth = 0
    for i, ch in enumerate(chunk):
        depth += (ch == "(") - (ch == ")")
        if depth <= 0:
            break
    return chunk[1:-1] if chunk[0] == "(" and depth == 0 and i == len(chunk) - 1 else chunk


def _parse_points(text: str, pres: Presentation):
    pts = []
    for chunk in text.split():
        coords = tuple(parse_scalar(c) for c in _unwrap(chunk).split(":"))
        if len(coords) != pres.num_generators:
            raise ParseError(
                f"point {chunk!r} needs {pres.num_generators} coordinates")
        pts.append(coords)
    if not pts:
        raise ParseError("empty point list")
    return pts


def _witness_from_args(args, pres):
    from .normal import HeisenbergWitness
    if None in (args.x, args.y, args.u):
        raise ParseError("--x, --y and --u go together")
    g = parse_poly(args.g, pres.names)
    x = parse_poly(args.x, pres.names)
    y = parse_poly(args.y, pres.names)
    u = parse_scalar(args.u)
    return HeisenbergWitness(g=g, x=x, y=y, u=u)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hilbert(args, report, pres):
    dims = hilbert(pres, args.max_degree, args.budget)
    report.add("dimensions", ",".join(str(d) for d in dims))


def cmd_minrel(args, report, pres):
    counts = minimal_relation_degrees(pres, args.max_degree, args.budget)
    if counts:
        for d in sorted(counts):
            report.add(f"degree {d}", str(counts[d]))
    else:
        report.add("minimal relations", "none")


def _cache_for(args, pres):
    cap = args.cap if args.cap is not None else default_cap(pres.num_generators)
    return QuotientCache(pres, cap, args.budget)


def cmd_heisenberg(args, report, pres):
    from .normal import EXTRA_X, find_witness, is_q_heisenberg
    cache = _cache_for(args, pres)
    report.add("cap", str(cache.cap))
    if (args.x, args.y, args.u) != (None, None, None):
        res = is_q_heisenberg(cache, _witness_from_args(args, pres))
    else:
        g = parse_poly(args.g, pres.names)
        res = find_witness(cache, g, rng=Random(args.seed))
        if res is None:
            report.check("witness search", False, "no (x, y, u) found for the sampled x: "
                         f"the generators and up to {EXTRA_X} seeded combinations")
            return
        report.add("found x", poly_to_str(res.witness.x, pres.names))
        report.add("found y", poly_to_str(res.witness.y, pres.names))
        report.add("found u", scalar_to_str(res.witness.u))
    report.add_block("q'-heisenberg", res.lines())
    report.check("q'-heisenberg verdict", res.ok, ", ".join(res.failed_clauses()))


def cmd_power_ids(args, report, pres):
    from .normal import check_power_identities, is_q_heisenberg
    if args.r_max < 1:
        raise ParseError("--r-max must be at least 1")
    cache = _cache_for(args, pres)
    witness = _witness_from_args(args, pres)
    pre = is_q_heisenberg(cache, witness)
    report.check("witness is q'-heisenberg", pre.ok)
    ok = check_power_identities(cache, witness, args.r_max)
    report.check(f"power identities for r <= {args.r_max}", ok)


def cmd_qv_check(args, report, pres):
    from .normal import NonUniqueSolutionError, NotNormalError
    from .veronese import TwistSystem, verify_bold_normal
    cache = _cache_for(args, pres)
    g = parse_poly(args.g, pres.names)
    try:
        ok, checked, skipped, nu = verify_bold_normal(cache, g)
    except (NotNormalError, NonUniqueSolutionError) as exc:
        report.check("bold-g normality precondition", False, str(exc))
        return
    report.add("entry identities checked", str(checked))
    if skipped:
        report.add("entries skipped (over cap)", str(skipped))
    report.check("bold-g normal identity g a = nu(a) g", ok)
    ok_ts = TwistSystem(nu).validate(cache)
    report.check("twisting system law", ok_ts)


def cmd_weyl_witness(args, report, pres):
    from .normal import NonUniqueSolutionError, NotNormalError
    from .veronese import weyl_witness
    cache = _cache_for(args, pres)
    witness = _witness_from_args(args, pres)
    try:
        cert = weyl_witness(cache, witness)
    except (NotNormalError, NonUniqueSolutionError) as exc:
        report.check("weyl witness precondition", False, str(exc))
        return
    report.add_block("weyl identity entries", cert.lines())
    report.check("weyl witness", cert.ok, f"offending entries {cert.offending_entries()}")


def cmd_point_extend(args, report, pres):
    from .points import extension_fiber, fiber_point, format_point, is_truncated_point_module
    pts = _parse_points(args.points, pres)
    ok, violation = is_truncated_point_module(pres, pts)
    if not ok:
        report.check("input is a truncated point module", False,
                     f"relation {violation[0]} window {violation[1]}")
        return
    report.check("input is a truncated point module", True)
    fiber = extension_fiber(pres, pts)
    report.add("fiber projective dimension", str(fiber.proj_dim))
    for vec in fiber.basis:
        report.add("fiber basis point", format_point(fiber_point(vec)))
    if fiber.empty:
        report.add("fiber", "empty")


def cmd_torsionfree(args, report, pres):
    from .points import format_points, torsionfree_search
    if args.samples < 0:
        raise ParseError("--samples must be nonnegative")
    g = parse_poly(args.g, pres.names)
    report.add("seed", str(args.seed))
    res = torsionfree_search(pres, g, args.length,
                             random_seeds=args.samples,
                             generic=args.generic, seed=args.seed)
    report.add_block("torsionfree search", res.lines())
    if res.found is not None:
        report.add("found module", format_points(res.found))


def cmd_skew_variety(args, report, L):
    from .colorlie import degree_one_omega, skew_point_variety
    if (L is None) == (args.omega is None):
        raise ParseError("skew-variety needs a color Lie file or --omega, not both")
    if L is not None:
        omega = degree_one_omega(L)
    else:
        omega = [[parse_scalar(v) for v in row.split(",")]
                 for row in args.omega.split(";")]
    supports = skew_point_variety(omega)
    report.add("ambient", f"P^{len(omega) - 1}")
    for s in supports:
        report.add("maximal support", "{" + ",".join(str(i) for i in sorted(s)) + "}")


def _as_presentation(source, args) -> Presentation:
    """U(L) for a color Lie input, built to degree n_L + 1: L_d = 0 above
    n_L, so the relations of U(L) end in that degree."""
    if isinstance(source, Presentation):
        return source
    from .colorlie import presentable_layers, u_presentation
    return u_presentation(source, len(presentable_layers(source)) + 1, args.budget).pres


def cmd_compare(args, report, left, right):
    from .points import compare_point_sets
    if args.samples < 0:
        raise ParseError("--samples must be nonnegative")
    if args.length < 1:
        raise ParseError("--length must be at least 1")
    pres_left = _as_presentation(left, args)
    if right is not None:
        pres_right = _as_presentation(right, args)
    else:
        if isinstance(left, Presentation):
            raise ParseError("compare with one file needs a color Lie input")
        from .colorlie import epsilon_symmetric
        pres_right = epsilon_symmetric(left)
        report.add("right side", "epsilon-symmetric algebra of the degree-one part")
    report.add("seed", str(args.seed))
    res = compare_point_sets(pres_left, pres_right, args.length, args.samples,
                             Random(args.seed))
    report.add_block("point-set comparison", res.lines())


def cmd_stabilize(args, report, pres):
    from .points import stabilization_check
    if args.samples < 0:
        raise ParseError("--samples must be nonnegative")
    report.add("seed", str(args.seed))
    res = stabilization_check(pres, args.from_length, args.to_length,
                              args.samples, Random(args.seed))
    report.add_block("stabilization evidence", res.lines())
    report.check("fibers singleton and shifts valid", res.ok)


def cmd_color_check(args, report, L):
    from .colorlie import check_color_axioms
    ok, violations = check_color_axioms(L)
    for v in violations:
        report.add("violation", v)
    report.check("color Lie axioms", ok)


def cmd_upresent(args, report, L):
    from .colorlie import u_presentation
    cache = u_presentation(L, args.max_degree, args.budget)
    report.add("generators", " ".join(cache.pres.names))
    for f in cache.pres.relations:
        report.add("relation", poly_to_str(f, cache.pres.names))
    report.add("dimensions", ",".join(str(cache.dim(d)) for d in range(args.max_degree + 1)))


def cmd_nl(args, report, L):
    from .colorlie import n_invariant
    report.add("n_L", str(n_invariant(L)))


def cmd_koszul(args, report, L):
    from .colorlie import check_color_axioms, koszul_complex, koszul_verify
    ok_ax, violations = check_color_axioms(L)
    report.check("color Lie axioms", ok_ax, f"{len(violations)} violations")
    r_max = args.r_max if args.r_max is not None else L.dim
    K = koszul_complex(L, r_max, args.max_degree)
    res = koszul_verify(K)
    report.add_block("koszul resolution", res.lines())
    report.check("d^2 = 0", res.ok_d_squared)
    report.check("exactness in degrees 1..cap", res.ok_exact)


def cmd_heisenberg_extract(args, report, L):
    from .colorlie import heisenberg_from_color
    from .normal import is_q_heisenberg
    res = heisenberg_from_color(L, args.cap, args.budget)
    report.add("n_L", str(res.n_value))
    if res.kind == "s-epsilon":
        report.add("case", "S_epsilon (n_L = 1, no element needed)")
        return
    names = res.cache.pres.names
    report.add("choice", res.chosen)
    report.add("g", poly_to_str(res.witness.g, names))
    report.add("x", poly_to_str(res.witness.x, names))
    report.add("y", poly_to_str(res.witness.y, names))
    report.add("u", scalar_to_str(res.witness.u))
    check = is_q_heisenberg(res.cache, res.witness)
    report.add_block("q'-heisenberg", check.lines())
    report.check("extracted witness verifies", check.ok)


# ---------------------------------------------------------------------------
# arguments
# ---------------------------------------------------------------------------

BOOLEAN_OPTIONAL = "boolean-optional"  # argparse.BooleanOptionalAction, by name


class _Declarations(list):
    """One subcommand's add_argument and set_defaults calls, in order, as
    (method, names, keywords): `build_parser` replays them into argparse
    and `read_argv` reads a run off them."""

    def add_argument(self, *names, **kwargs):
        self.append(("add_argument", names, kwargs))

    def set_defaults(self, **kwargs):
        self.append(("set_defaults", (), kwargs))


def _declarations(name) -> _Declarations:
    _, func, setup = SUBCOMMANDS[name]
    calls = _Declarations()
    setup(calls)
    calls.set_defaults(func=func)
    return calls


def _common(p, *, load, inputs=None, seed=False, cap=False, budget=True):
    """Options shared by the subcommands.  `load` is the kind of the
    input files (see `_load_input`); unless the command declares its
    own positional `inputs`, this adds the one positional `load`."""
    if inputs is None:
        p.add_argument(load)
        inputs = (load,)
    p.set_defaults(load=load, inputs=inputs)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if cap:
        p.add_argument("--cap", type=int, default=None,
                       help="degree cap (default 8 for two generators, else 5)")
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                       help="per-degree word budget")


def _witness(p, *, required):
    p.add_argument("--g", required=True)
    for flag in ("--x", "--y", "--u"):
        p.add_argument(flag, required=required,
                       help=None if required else "--x, --y and --u go together")


def _max_degree_args(p):
    p.add_argument("--max-degree", type=int, required=True)
    _common(p, load="algebra")


def _heisenberg_args(p):
    _witness(p, required=False)
    _common(p, load="algebra", seed=True, cap=True)


def _power_ids_args(p):
    _witness(p, required=True)
    p.add_argument("--r-max", type=int, default=5)
    _common(p, load="algebra", cap=True)


def _qv_check_args(p):
    p.add_argument("--g", required=True)
    _common(p, load="algebra", cap=True)


def _weyl_witness_args(p):
    _witness(p, required=True)
    _common(p, load="algebra", cap=True)


def _point_extend_args(p):
    p.add_argument("--points", required=True,
                   help="space-separated projective points like '1:1 2:1'")
    _common(p, load="algebra", budget=False)


def _torsionfree_args(p):
    p.add_argument("--g", required=True)
    p.add_argument("--length", type=int, required=True,
                   help="module length (number of components)")
    p.add_argument("--samples", type=int, default=0, help="random seed points")
    p.add_argument("--generic", action=BOOLEAN_OPTIONAL, default=True,
                   help="use the generic Q(t) seed and fiber parametrization")
    _common(p, load="algebra", seed=True, budget=False)


def _skew_variety_args(p):
    p.add_argument("colorlie", nargs="?", default=None)
    p.add_argument("--omega", help="rows 'a,b;c,d' of the commutation matrix")
    _common(p, load="colorlie", inputs=("colorlie",), budget=False)


def _compare_args(p):
    p.add_argument("left", help=".alg or .cl file")
    p.add_argument("right", nargs="?", default=None,
                   help=".alg or .cl file; defaults to the epsilon-symmetric side")
    p.add_argument("--length", type=int, required=True,
                   help="number of points per sampled sequence")
    p.add_argument("--samples", type=int, default=100)
    _common(p, load="either", inputs=("left", "right"), seed=True)


def _stabilize_args(p):
    p.add_argument("--from", dest="from_length", type=int, required=True)
    p.add_argument("--to", dest="to_length", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    _common(p, load="algebra", seed=True, budget=False)


def _colorlie_args(p):
    _common(p, load="colorlie", budget=False)


def _upresent_args(p):
    p.add_argument("--max-degree", type=int, default=5)
    _common(p, load="colorlie")


def _koszul_args(p):
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=6)
    _common(p, load="colorlie", budget=False)


def _heisenberg_extract_args(p):
    p.add_argument("--cap", type=int, default=None,
                   help="degree cap of the relation search and the check (default 3 n_L - 1)")
    _common(p, load="colorlie")


# name -> (help, handler, argument setup), in the order that --help lists them
SUBCOMMANDS = {
    "hilbert": ("dimensions of the graded components", cmd_hilbert, _max_degree_args),
    "minrel": ("minimal relation degrees", cmd_minrel, _max_degree_args),
    "heisenberg": ("verify or search a q'-Heisenberg witness", cmd_heisenberg,
                   _heisenberg_args),
    "power-ids": ("commutation power identities", cmd_power_ids, _power_ids_args),
    "qv-check": ("bold-g normality in the quasi-Veronese algebra", cmd_qv_check,
                 _qv_check_args),
    "weyl-witness": ("homogeneous Weyl-algebra witness identity", cmd_weyl_witness,
                     _weyl_witness_args),
    "point-extend": ("extension fiber of a point sequence", cmd_point_extend,
                     _point_extend_args),
    "torsionfree": ("search for a truncated g-torsionfree module", cmd_torsionfree,
                    _torsionfree_args),
    "skew-variety": ("point variety of a skew polynomial algebra", cmd_skew_variety,
                     _skew_variety_args),
    "compare": ("cross-check sampled point modules of two algebras", cmd_compare,
                _compare_args),
    "stabilize": ("fiber-dimension and shift evidence", cmd_stabilize, _stabilize_args),
    "color-check": ("color Lie algebra axioms", cmd_color_check, _colorlie_args),
    "upresent": ("degree-one presentation of U(L)", cmd_upresent, _upresent_args),
    "nl": ("nilpotency index of the degree-one part", cmd_nl, _colorlie_args),
    "koszul": ("color Koszul resolution checks", cmd_koszul, _koszul_args),
    "heisenberg-extract": ("extract a q'-Heisenberg element from a color Lie algebra",
                           cmd_heisenberg_extract, _heisenberg_extract_args),
}


def build_parser() -> "argparse.ArgumentParser":
    """The parser of every subcommand, replayed from its declarations."""
    import argparse
    top = argparse.ArgumentParser(
        prog="ncpoint",
        description="Exact checks for graded algebra presentations, "
                    "point modules, and color Lie algebras.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=SUBCOMMANDS[name][0])
        for method, args, kwargs in _declarations(name):
            if kwargs.get("action") == BOOLEAN_OPTIONAL:
                kwargs = {**kwargs, "action": argparse.BooleanOptionalAction}
            getattr(p, method)(*args, **kwargs)
    return top


def _dest(names, kwargs):
    return kwargs.get("dest") or names[0].lstrip("-").replace("-", "_")


def read_argv(argv):
    """The namespace `build_parser().parse_args(argv)` gives, when argv
    has the common shape (see the module docstring): positionals are the
    tokens before the first that starts with "-".  None for any other argv."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    values = {"subcommand": argv[0]}
    positionals, required, options = [], [], {}
    for method, names, kwargs in _declarations(argv[0]):
        if method == "set_defaults":
            values.update(kwargs)
            continue
        dest = _dest(names, kwargs)
        values[dest] = kwargs.get("default")
        positional = not names[0].startswith("-")
        if kwargs.get("required", positional and "nargs" not in kwargs):
            required.append(dest)
        if positional:
            positionals.append(dest)
        elif kwargs.get("action") == BOOLEAN_OPTIONAL:
            options[names[0]] = (dest, None, True)
            options["--no-" + names[0][2:]] = (dest, None, False)
        else:
            options[names[0]] = (dest, kwargs.get("type", str), None)
    i = 1
    while i < len(argv) and not argv[i].startswith("-"):
        i += 1
    if i - 1 > len(positionals):
        return None
    given = dict(zip(positionals, argv[1:i]))
    while i < len(argv):
        name, eq, value = argv[i].partition("=")
        if name not in options or options[name][0] in given:
            return None
        dest, type_, flag = options[name]
        if type_ is None:
            if eq:
                return None
            given[dest] = flag
        else:
            if not eq:
                i += 1
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                value = argv[i]
            elif value == "--":  # argparse reads "--name=--" as []
                return None
            try:
                given[dest] = type_(value)
            except ValueError:
                return None
        i += 1
    values.update(given)
    return SimpleNamespace(**values) if given.keys() >= set(required) else None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code not in (0, None) else 0
        for method, names, kwargs in _declarations(args.subcommand):
            # argparse reads "--name=--" as [], a value no handler takes
            if method == "add_argument" and isinstance(getattr(args, _dest(names, kwargs)), list):
                print(f"error: argument {names[0]}: expected one argument", file=sys.stderr)
                return USAGE_ERROR
    report = RunReport(command="ncpoint " + " ".join(map(shell_quote, argv)))
    start = time.monotonic()
    try:
        loaded = [None if getattr(args, name) is None
                  else _load_input(args.load, getattr(args, name), report)
                  for name in args.inputs]
        args.func(args, report, *loaded)
    except (InvariantError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_FAILURE
    except (ParseError, ScalarParseError, BudgetError, DegreeCapError,
            OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(report.render())
    print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0 if report.ok else MATH_FAILURE


gc.freeze()  # import-time objects live until exit: keep every collection off them

if __name__ == "__main__":
    raise SystemExit(main())
