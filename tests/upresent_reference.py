"""Reference U(L) presentation for differential tests: all words plus a picker.

In each degree d whose quotient by the relations found so far is too
large, every one of the k^d words in the degree-one generators is mapped
to its PBW coordinates; the kernel of that dense map is read off `rref`,
one vector per free word in lex order.  Each kernel vector is reduced to
its normal form modulo the relations found so far, and a `RowReducer`
over all k^d words keeps the ones independent of those before it, each
scaled to make its lex-smallest word monic.
`ncpoint.colorlie.u_presentation` must return the same relations.
Exponential in the degree: for small algebras only.
"""

import itertools

from ncpoint.colorlie import pbw_dim, pbw_monomials, pbw_normal_form
from ncpoint.freealg import NCPoly, Presentation
from ncpoint.linalg import Matrix, RowReducer, row, rref, values
from ncpoint.quotient import QuotientCache
from ncpoint.scalars import sc_pow


def reference_u_presentation(L, max_degree: int) -> Presentation:
    thetas = L.theta_indices()
    names = tuple(L.names[i] for i in thetas)
    relations = []
    for d in range(2, max_degree + 1):
        cache = QuotientCache(Presentation(names, relations), d)
        if cache.dim(d) == pbw_dim(L, d):
            continue
        words = list(itertools.product(range(len(thetas)), repeat=d))
        images = [values(pbw_normal_form(L, tuple(thetas[i] for i in w))) for w in words]
        dense = Matrix([[image.get(mono, 0) for image in images]
                        for mono in pbw_monomials(L, d)], ncols=len(words))
        _, pivots, red = rref(dense)
        index = {w: i for i, w in enumerate(words)}
        picker = RowReducer()
        for f in range(len(words)):
            if f in pivots:
                continue
            poly = NCPoly({words[f]: 1,
                           **{words[p]: -red.rows[i][f] for i, p in enumerate(pivots)}})
            reduced = cache.normal_form(poly)
            if not reduced:
                continue
            if picker.insert(row({index[w]: c for w, c in reduced.terms.items()})) is None:
                continue
            lead = min(reduced.terms)
            relations.append(reduced.scale(sc_pow(reduced.terms[lead], -1)))
    return Presentation(names, relations)
