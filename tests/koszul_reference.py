"""Reference for the color Koszul differential: d_r of each basis element
of C_r = U(L)_q (x) Lambda^r L written straight from the formula, with
every sign eps(alpha, beta) evaluated from omega by `Bicharacter.eval`,
every bracket read off the stored table, and every product rewritten
into the PBW basis by a rewriter of its own.
`ncpoint.colorlie.koszul_complex` reads signs off the algebra's epsilon
table and builds each wedge's part of the differential once; its sparse
columns must equal these.  For small complexes only.
"""

from ncpoint.linalg import axpy
from ncpoint.scalars import Rational

_ONE = Rational(1)


def eps(L, a, b):
    return L.eps.eval(L.degrees[a], L.degrees[b])


def reference_bracket(L, i, j):
    """[b_i, b_j] as stored, else -eps(|b_i|, |b_j|) [b_j, b_i]."""
    stored = L.brackets.get((i, j))
    if stored is not None:
        return stored
    return {k: -(eps(L, i, j) * c) for k, c in L.brackets.get((j, i), {}).items()}


def reference_pbw(L, word, memo):
    """{sorted word: coeff}: rewrite the leftmost inversion b_j b_i as
    eps(|b_j|, |b_i|) b_i b_j + [b_j, b_i] until none is left."""
    if word in memo:
        return memo[word]
    out = {word: _ONE}
    for k in range(len(word) - 1):
        i, j = word[k], word[k + 1]
        if L.rank_of[i] > L.rank_of[j]:
            head, tail = word[:k], word[k + 2:]
            out = {}
            axpy(out, eps(L, i, j), reference_pbw(L, head + (j, i) + tail, memo))
            for b, c in reference_bracket(L, i, j).items():
                axpy(out, c, reference_pbw(L, head + (b,) + tail, memo))
            break
    memo[word] = out
    return out


def reference_wedge_sort(L, word):
    """(strictly increasing word, sign) with u ^ v = -eps(|u|, |v|) v ^ u,
    or (None, 0) when a factor repeats."""
    word = list(word)
    coeff = _ONE
    for a in range(1, len(word)):
        b = a
        while b > 0 and L.rank_of[word[b - 1]] > L.rank_of[word[b]]:
            coeff = coeff * (-eps(L, word[b - 1], word[b]))
            word[b - 1], word[b] = word[b], word[b - 1]
            b -= 1
    if len(set(word)) != len(word):
        return None, 0
    return tuple(word), coeff


def reference_differential(L, mono, wedge, memo):
    """d_r(mono (x) wedge) as {(mono', smaller wedge): coeff}: with
    eta_i = prod_{l<i} eps(|w_l|, |w_i|), 1-based,
    sum_i (-1)^(i+1) eta_i mono w_i (x) (wedge without w_i) plus
    sum_{i<j} (-1)^(i+j) eta_i eta_j eps(|w_j|, |w_i|)
    mono (x) [w_i, w_j] ^ (wedge without w_i, w_j)."""
    r = len(wedge)
    out = {}
    etas = []
    for i in range(r):
        acc = _ONE
        for l in range(i):
            acc = acc * eps(L, wedge[l], wedge[i])
        etas.append(acc)
    for i in range(r):
        sign = _ONE if i % 2 == 0 else -_ONE
        rest = wedge[:i] + wedge[i + 1:]
        image = reference_pbw(L, mono + (wedge[i],), memo)
        axpy(out, sign * etas[i], {(mono2, rest): c for mono2, c in image.items()})
    for i in range(r):
        for j in range(i + 1, r):
            sign = _ONE if (i + j) % 2 == 0 else -_ONE
            factor = sign * etas[i] * etas[j] * eps(L, wedge[j], wedge[i])
            rest = tuple(v for k, v in enumerate(wedge) if k not in (i, j))
            for k, ck in reference_bracket(L, wedge[i], wedge[j]).items():
                sorted_w, sgn = reference_wedge_sort(L, (k,) + rest)
                if sorted_w is not None:
                    axpy(out, factor, {(mono, sorted_w): ck * sgn})
    return out


def reference_matrices(K):
    """{(r, s): one sparse column {row index in C_{r-1}: coeff} per basis
    element of C_r}, on the bases of the complex K."""
    out, memo = {}, {}
    for (r, s) in K.matrices:
        rows = {b: i for i, b in enumerate(K.bases[(r - 1, s)])}
        out[(r, s)] = [{rows[key]: c for key, c in
                        reference_differential(K.L, mono, wedge, memo).items()}
                       for mono, wedge in K.bases[(r, s)]]
    return out
