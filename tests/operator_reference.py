"""A naive reference for the first-order operator arithmetic.

Coefficients are plain term dicts {key: QQi} over one of the two exact
rings of ``ncspacetime.expressions``, read off ``Poly.terms`` and
``TrigLaurent.terms``:

* "poly": a key is the exponent tuple of the variables;
* "trig": a key is (a_1, m_1, a_2, m_2, ...), the monomial
  prod_v cos(v)^a_v sin(v)^m_v with a_v in {0, 1} and m_v any integer.

Everything here is a sum of products read from the definitions, one term
at a time, with the QQi operators; nothing calls the package's ring
products, derivatives or operator code.  A product of trig monomials adds
the exponents and then rewrites cos^2 = 1 - sin^2, one square at a time,
until every cosine power is 0 or 1.

An operator is (zeroth, {variable: coefficient}), as DiffOperator holds
it; a first-order slot whose sum cancels stays, as the empty dict.
"""

from ncspacetime.scalars import QQi, powers


def _add_into(out: dict, key, c: QQi) -> None:
    out[key] = out[key] + c if key in out else c


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _trig_canonical(key: tuple, c: QQi) -> dict:
    """key with any cosine powers as canonical terms."""
    for j in range(0, len(key), 2):
        if key[j] >= 2:
            less = key[:j] + (key[j] - 2,) + key[j + 1:]
            more = less[:j + 1] + (less[j + 1] + 2,) + less[j + 2:]
            out = {}
            for k, v in _trig_canonical(less, c).items():
                _add_into(out, k, v)
            for k, v in _trig_canonical(more, -c).items():
                _add_into(out, k, v)
            return out
    return {key: c}


def mul(ring: str, x: dict, y: dict) -> dict:
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            if ring == "poly":
                _add_into(out, key, c1 * c2)
            else:
                for k, c in _trig_canonical(key, c1 * c2).items():
                    _add_into(out, k, c)
    return _nonzero(out)


def add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        _add_into(out, k, c if sign > 0 else -c)
    return _nonzero(out)


def diff(ring: str, variables: tuple, x: dict, name: str) -> dict:
    """d/d name: d x^e = e x^(e-1); d(c^a s^m) = m c^(a+1) s^(m-1)
    - a c^(a-1) s^(m+1), with d s = c and d c = -s."""
    j = variables.index(name)
    out = {}
    for key, c in x.items():
        if ring == "poly":
            e = key[j]
            if e:
                _add_into(out, key[:j] + (e - 1,) + key[j + 1:], c * e)
            continue
        a, m = key[2 * j], key[2 * j + 1]
        for da, dm, f in ((1, -1, m), (-1, 1, -a)):
            if f:
                k = key[:2 * j] + (a + da, m + dm) + key[2 * j + 2:]
                for kk, cc in _trig_canonical(k, c * f).items():
                    _add_into(out, kk, cc)
    return _nonzero(out)


def commutator(ring: str, variables: tuple, a, b):
    """[A, B] f = A(B f) - B(A f) for A = a0 + sum_v a_v d_v and B alike:
    zeroth sum_v a_v d_v b0 - b_v d_v a0, and on every slot w of either
    operator sum_v a_v d_v b_w - b_v d_v a_w."""
    (a0, af), (b0, bf) = a, b

    def term(x, y, v):
        return mul(ring, x, diff(ring, variables, y, v))

    zeroth = {}
    for v, c in af.items():
        zeroth = add(zeroth, term(c, b0, v))
    for v, c in bf.items():
        zeroth = add(zeroth, term(c, a0, v), -1)
    firsts = {}
    for w in set(af) | set(bf):
        acc = {}
        for v, c in af.items():
            acc = add(acc, term(c, bf.get(w, {}), v))
        for v, c in bf.items():
            acc = add(acc, term(c, af.get(w, {}), v), -1)
        firsts[w] = acc
    return zeroth, firsts


def image(ring: str, elem, rep: dict, scalar) -> tuple:
    """sum_g scalar(s_g) * rep[g] plus the central part, for a table entry
    elem (words of length <= 1); its slots are those of the operators
    summed.  scalar maps a Scalar to a term dict of the ring."""
    zeroth, firsts = {}, {}
    for word, s in elem.terms.items():
        k = scalar(s)
        if not word:
            zeroth = add(zeroth, k)
            continue
        (gid,) = word
        g0, gf = rep[gid]
        zeroth = add(zeroth, mul(ring, k, g0))
        for v, c in gf.items():
            firsts[v] = add(firsts.get(v, {}), mul(ring, k, c))
    return zeroth, firsts


def poly_scalar(variables: tuple):
    """Scalar -> poly terms for Scalars in nonnegative powers of ell."""
    j = variables.index("ell")

    def scalar(s) -> dict:
        out = {}
        for key, c in s.terms.items():
            pw = powers(key)
            assert set(pw) <= {"ell"} and pw.get("ell", 0) >= 0
            mono = [0] * len(variables)
            mono[j] = pw.get("ell", 0)
            _add_into(out, tuple(mono), c)
        return _nonzero(out)
    return scalar


def trig_scalar(variables: tuple):
    """Scalar -> trig terms for constant Scalars."""
    def scalar(s) -> dict:
        assert set(s.terms) <= {0}
        c = s.terms.get(0, QQi(0))
        return _nonzero({(0,) * (2 * len(variables)): c})
    return scalar


def terms_of(op) -> tuple:
    """A DiffOperator with exact coefficients as (zeroth, {v: terms})."""
    return op.zeroth.terms, {v: c.terms for v, c in op.firsts.items()}
