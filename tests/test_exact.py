import ast
import copy
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zetachain.exact
from zetachain.exact import (
    GAMMA,
    LOG_2PI,
    ONE,
    BernoulliConvention,
    LinearForm,
    bernoulli,
    bernoulli_self_identity,
    binomial,
    harmonic,
    ramanujan_closed_form,
    solve_binomial,
)
from zetachain.chain import solve_chain
from zetachain.values import SumConvention, SymbolicValue

PLUS = BernoulliConvention.PAPER_PLUS
MINUS = BernoulliConvention.CONVENTIONAL_MINUS


def test_binomial_values():
    assert binomial(2, 1) == 2
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_rejects_zero():
    with pytest.raises(ValueError):
        harmonic(0)


@given(st.integers(min_value=1, max_value=500))
def test_harmonic_telescoping(n):
    assert harmonic(n + 1) - harmonic(n) == Fraction(1, n + 1)


def test_bernoulli_convention_only_differs_at_one():
    assert bernoulli(1, PLUS) == Fraction(1, 2)
    assert bernoulli(1, MINUS) == Fraction(-1, 2)
    for n in range(0, 40):
        if n != 1:
            assert bernoulli(n, PLUS) == bernoulli(n, MINUS)


def test_bernoulli_small_values():
    assert bernoulli(0, PLUS) == 1
    assert bernoulli(2, PLUS) == Fraction(1, 6)
    assert bernoulli(4, PLUS) == Fraction(-1, 30)
    assert bernoulli(12, PLUS) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for n in range(3, 61, 2):
        assert bernoulli(n, PLUS) == 0


def test_bernoulli_akiyama_tanigawa_cross_check(monkeypatch):
    # independent algorithm for the same numbers, against a cold cache that
    # grows by jumps to odd and even n as well as by doubling
    n = 300
    ref = []
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        ref.append(row[0])
    monkeypatch.setattr(zetachain.exact, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
    for m in (5, 20, 63, 65, 300):
        assert bernoulli(m, PLUS) == ref[m]
    assert [bernoulli(m, PLUS) for m in range(n + 1)] == ref


def test_self_identity_residuals():
    assert bernoulli_self_identity(2, MINUS) == 0
    assert bernoulli_self_identity(3, MINUS) == 0
    assert bernoulli_self_identity(2, PLUS) == 2


def test_self_identity_exhaustive_minus():
    for n in range(2, 61):
        assert bernoulli_self_identity(n, MINUS) == 0


def test_self_identity_rejects_small_n():
    with pytest.raises(ValueError):
        bernoulli_self_identity(1, MINUS)


# r_k for k = 0..8, found by PSLQ at 90 digits; the closed form is derived
# in code and must reproduce them
PSLQ_RATIONALS = [
    Fraction(1, 2),
    Fraction(7, 8),
    Fraction(17, 24),
    Fraction(169, 288),
    Fraction(367, 720),
    Fraction(667, 1440),
    Fraction(134, 315),
    Fraction(231101, 604800),
    Fraction(51787, 151200),
]


@pytest.mark.parametrize("k", range(9))
def test_ramanujan_closed_form_matches_pslq(k):
    # R_k = r_k + g_k gamma + sum_j (-1)^j C(k, j) zeta'(-j), with
    # g_0 = 3/2 and g_k = 1/(k+1) + zeta(-k) = 1/(k+1) - B_(k+1)/(k+1)
    # the form holds the zeta'(0) weight w as -w/2 ln(2 pi)
    form = ramanujan_closed_form(k)
    gamma = Fraction(3, 2) if k == 0 else (1 - bernoulli(k + 1)) / (k + 1)
    weights = {("zeta'", j): (-1) ** j * math.comb(k, j) for j in range(1, k + 1)}
    assert form == {ONE: PSLQ_RATIONALS[k], GAMMA: gamma, LOG_2PI: Fraction(-1, 2)} | weights


def test_linear_form_is_immutable():
    # a cached closed form handed to a caller cannot be changed through it
    form = ramanujan_closed_form(3)
    before = dict(form)
    mutations = [
        lambda: form.__setitem__(GAMMA, 0),
        lambda: form.__delitem__(ONE),
        lambda: form.update({ONE: 0}),
        lambda: form.setdefault(("zeta'", 4), 1),
        lambda: form.pop(ONE),
        lambda: form.popitem(),
        lambda: form.clear(),
        lambda: form.__ior__({ONE: 0}),
        lambda: setattr(form, "terms", {}),
        lambda: hash(form),
    ]
    for mutate in mutations:
        with pytest.raises(TypeError):
            mutate()
    assert ramanujan_closed_form(3) is form
    assert dict(ramanujan_closed_form(3)) == before
    # a copy is a new form of the same class and terms
    for twin in (copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
        assert type(twin) is LinearForm and twin == form and twin is not form


def test_linear_form_arithmetic():
    # zero coefficients drop out and coefficients are kept as given (an int
    # stays an int); the string shows 1, gamma and ln(2 pi) always
    x = LinearForm({ONE: Fraction(1, 2), GAMMA: 0, ("zeta'", 1): 3})
    y = LinearForm({ONE: Fraction(-1, 2), LOG_2PI: 1})
    assert x == {ONE: Fraction(1, 2), ("zeta'", 1): 3}
    assert x + y == {("zeta'", 1): 3, LOG_2PI: 1}
    assert x - y == {ONE: 1, ("zeta'", 1): 3, LOG_2PI: -1}
    assert -x == x * -1 == {ONE: Fraction(-1, 2), ("zeta'", 1): -3}
    assert x * 0 == {} and x - x == {}
    assert type((x + y)[LOG_2PI]) is int
    assert str(x) == "1/2 + (0)*gamma + (0)*log(2*pi) + (3)*zeta'(-1)"
    assert str(LinearForm({("log", 2): -1, ("zeta'", 2): 1})) == (
        "0 + (0)*gamma + (0)*log(2*pi) + (-1)*log(2) + (1)*zeta'(-2)"
    )


def test_ramanujan_closed_form_rejects_negative_k():
    with pytest.raises(ValueError):
        ramanujan_closed_form(-1)


def _zeta_prime_weights(form, k):
    # the zeta'(-j) weights of a closed form for j = 0..k, the zeta'(0)
    # weight -2 times the ln(2 pi) part
    return (-2 * form.get(LOG_2PI, 0), *(form.get(("zeta'", j), 0) for j in range(1, k + 1)))


def _cold_moments(top):
    return [zetachain.exact._log_gamma_moment(m) for m in range(top + 1)]


def test_ramanujan_logarithms_cancel(monkeypatch):
    # Each moment int_2^3 u^m ln Gamma(u) du carries ln 2 from zeta(w, 3) =
    # zeta(w) - 1 - 2^(-w); no ln 3 enters, since the Hurwitz values are
    # taken at u = 2 and 3 only.  The ln 2 of every c_s, s <= 41, cancels
    # against the boundary term 2^s ln Gamma(3), so R_k for k <= 40 is of
    # the closed form, from a cold cache.
    monkeypatch.setattr(zetachain.exact, "_ramanujan_forms", [])
    monkeypatch.setattr(zetachain.exact, "_moments", [])
    moments = _cold_moments(40)
    assert all(m.get(("log", 2)) for m in moments)
    assert not any(key == ("log", 3) for m in moments for key in m)
    for s in range(1, 42):
        c = zetachain.exact._shift_constant(s, moments)
        assert not [key for key in c if key[0] == "log"]
    assert _zeta_prime_weights(ramanujan_closed_form(40), 40) == tuple((-1) ** j * math.comb(40, j) for j in range(41))


def test_ramanujan_surviving_logarithm_raises(monkeypatch):
    # a Hurwitz value at u = 3 without its 2^(-w) term leaves ln 2 in c_s
    hurwitz = zetachain.exact._hurwitz_jet

    def without_logs(i, a):
        value, slope = hurwitz(i, a)
        return value, LinearForm({key: v for key, v in slope.items() if key[0] != "log"})

    monkeypatch.setattr(zetachain.exact, "_hurwitz_jet", without_logs)
    with pytest.raises(ArithmeticError, match="logarithms"):
        zetachain.exact._shift_constant(1, _cold_moments(0))


def test_ramanujan_cache_recovers_after_a_raise(monkeypatch):
    # a growth that raises leaves the moment of its row behind; the next
    # growth must reuse it, not append a second copy
    monkeypatch.setattr(zetachain.exact, "_ramanujan_forms", [])
    monkeypatch.setattr(zetachain.exact, "_moments", [])
    shift = zetachain.exact._shift_constant

    def failing(s, moments):
        raise ArithmeticError("injected")

    monkeypatch.setattr(zetachain.exact, "_shift_constant", failing)
    with pytest.raises(ArithmeticError, match="injected"):
        ramanujan_closed_form(3)
    monkeypatch.setattr(zetachain.exact, "_shift_constant", shift)
    assert ramanujan_closed_form(3)[ONE] == PSLQ_RATIONALS[3]


def test_shift_constant_zeta_prime_weights():
    # the triangular system gives sum_{j<s} C(s, j) R_j = -zeta(1-s) + c_s,
    # so the zeta'(-i) weight of c_s is sum_{i<=j<s} C(s, j) (-1)^i C(j, i) =
    # (-1)^i C(s, i) (2^(s-i) - 1) for i < s, and zeta'(-s) drops out
    moments = _cold_moments(20)
    for s in range(1, 22):
        c = zetachain.exact._shift_constant(s, moments)
        for i, w in enumerate(_zeta_prime_weights(c, s)):
            assert w == (-1) ** i * math.comb(s, i) * (2 ** (s - i) - 1), (s, i)
        assert c[GAMMA] == Fraction(2 ** (s + 1) - 1, s + 1)
        assert set(c) <= {ONE, GAMMA, LOG_2PI} | {("zeta'", i) for i in range(1, s)}


@pytest.mark.parametrize("conv", [SumConvention.A, SumConvention.B])
def test_ramanujan_minus_chain_solves_the_shift_constants(conv):
    # R_j and S_j solve one system with right-hand sides -zeta(1-s) + c_s and
    # -zeta(1-s) from s = 2 on, so their differences D_j solve it with c_s:
    # from D_0 = R_0 - S_0 the solve must give R_k - S_k for every k <= 20
    chain, moments = solve_chain(20, conv), _cold_moments(20)
    shifts = [zetachain.exact._shift_constant(s, moments) for s in range(2, 22)]
    diffs = solve_binomial([ramanujan_closed_form(0) - chain[0]], shifts)
    assert diffs == [ramanujan_closed_form(k) - chain[k] for k in range(21)]


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def _reference_solve(xs, rhs):
    # the plain LinearForm recurrence, the loop the Ramanujan growth ran on
    # its own: X_(s-1) = (b_s - sum_{j<s-1} C(s, j) X_j) / s
    xs = list(xs)
    for b in rhs:
        s = len(xs) + 1
        xs.append(sum((xs[i] * -math.comb(s, i) for i in range(s - 1)), b) * Fraction(1, s))
    return xs


FORM_BASIS = (ONE, GAMMA, LOG_2PI, ("zeta'", 1), ("zeta'", 2))
forms = st.lists(small_fractions, min_size=len(FORM_BASIS), max_size=len(FORM_BASIS)).map(
    lambda qs: LinearForm(zip(FORM_BASIS, qs))
)
triples = st.lists(small_fractions, min_size=3, max_size=3).map(lambda qs: SymbolicValue.of(*qs))


@given(
    st.lists(st.one_of(forms, triples), max_size=5),
    st.lists(st.one_of(forms, triples, st.just(LinearForm()), st.just(SymbolicValue.of())), max_size=6),
)
def test_solve_binomial_is_the_plain_recurrence(xs, rhs):
    # the integer solve equals the recurrence on LinearForm arithmetic, term
    # for term, from any start (none included) and any right-hand sides
    # (zero ones included); each X_(s-1) is a form of b_s's class
    solved = list(xs)
    assert solve_binomial(solved, rhs) is solved
    expected = _reference_solve(xs, rhs)
    assert solved == expected
    assert [type(x) for x in solved[len(xs):]] == [type(b) for b in rhs]
    assert all(type(q) is Fraction for x in solved[len(xs):] for q in x.values())


@given(small_fractions, small_fractions, small_fractions)
def test_rational_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x


small_triples = st.lists(small_fractions, min_size=3, max_size=3)


@given(small_triples, small_triples, small_fractions)
def test_linear_form_vector_space_axioms(xs, ys, q):
    basis = (ONE, GAMMA, ("zeta'", 1))
    x, y = LinearForm(zip(basis, xs)), LinearForm(zip(basis, ys))
    assert x + y == y + x
    assert (x + y) - y == x
    assert x - y == x + -y
    assert (x + y) * q == x * q + y * q
    assert x + LinearForm() == x


def test_exact_layer_imports_no_numeric_layer():
    # the exact layer is the independent oracle, the Ramanujan closed forms
    # included: it must not import mpmath or any other zetachain module
    tree = ast.parse(Path(zetachain.exact.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    bad = {n for n in imported if n.startswith((".", "mpmath", "zetachain"))}
    assert not bad, bad


def test_src_parses_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python the package supports; every
    # module must parse with that version's grammar, which at 3.10 has
    # neither except* (3.11) nor PEP 695's type parameters (3.12)
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = tuple(int(v) for v in re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    assert floor == (3, 10)
    paths = sorted(Path(zetachain.exact.__file__).parent.glob("*.py"))
    assert len(paths) > 10, "too few modules found; the scan is broken"
    for path in paths:
        ast.parse(path.read_text(), filename=path.name, feature_version=floor)
    for newer in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "def f[T](x: T) -> T:\n    return x\n"):
        with pytest.raises(SyntaxError):
            ast.parse(newer, feature_version=floor)


# mpmath names src/ may use: elementary functions and constants, the number
# types and precision control.  mpmath's zeta, psi, gamma, bernoulli and quad
# are the tests' independent oracles, so the library must never call them.
ELEMENTARY_MPMATH = set(
    "cos cos_sin cospi euler exp expm1 floor inf log log1p mp mpc mpf pi sin sinpi".split()
)
# libmp kernels src/ may call on raw _mpf_/_mpc_ tuples, the ones mpmath's
# operators, conversions and elementary functions above call: arithmetic,
# sign, exp, log and cos_sin, scaling by a power of two, conversion from and
# to int, compared, rounded to nearest at a precision in bits or digits, and
# Euler's gamma (mpf_euler, the kernel behind mpmath.euler).  libmp's
# mpf_zeta, mpf_psi, mpf_gamma and mpf_bernoulli are the oracles' kernels and
# stay out.
ELEMENTARY_LIBMP = set(
    "dps_to_prec from_int mpf_abs mpf_add mpf_cos_sin mpf_div mpf_euler mpf_exp mpf_log mpf_lt mpf_mul "
    "mpf_mul_int mpf_neg mpf_pos mpf_pow mpf_pow_int mpf_shift mpf_sub round_nearest to_int".split()
)


def test_library_uses_only_elementary_mpmath():
    used, used_libmp = set(), set()
    for path in Path(zetachain.exact.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {"mpmath"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "mpmath" or a.name.startswith("mpmath."):
                        assert a.name == "mpmath", f"{path.name} imports {a.name}"
                        aliases.add(a.asname or a.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
                assert node.module in ("mpmath", "mpmath.libmp"), f"{path.name} imports from {node.module}"
                (used if node.module == "mpmath" else used_libmp).update(a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    used.add(node.attr)
    assert used, "no mpmath use found; the scan is broken"
    # equal, not a subset: a name no module uses any more leaves the list
    assert used == ELEMENTARY_MPMATH, (sorted(used - ELEMENTARY_MPMATH), sorted(ELEMENTARY_MPMATH - used))
    assert used_libmp == ELEMENTARY_LIBMP, (sorted(used_libmp - ELEMENTARY_LIBMP), sorted(ELEMENTARY_LIBMP - used_libmp))


def _mpmath_rooted(node, roots):
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in roots


def test_only_the_precision_module_sets_mpmath_precision():
    # mpmath's working precision is one process-wide global; precision.py
    # sets it only while holding its one lock, so a raw precision block or
    # assignment anywhere else would run unserialized
    managers = {"workdps", "workprec", "extradps", "extraprec"}
    setters, locks = {}, {}
    for path in sorted(Path(zetachain.exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {"mpmath"}  # names bound to mpmath or to something in it
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update(a.asname or a.name for a in node.names if a.name.startswith("mpmath"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
                roots.update(a.asname or a.name for a in node.names)
                found += [f"import {a.name}" for a in node.names if a.name in managers]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in managers and _mpmath_rooted(node.value, roots):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in ("prec", "dps")
                        and _mpmath_rooted(target.value, roots)
                    ):
                        found.append(f"line {node.lineno}: {ast.unparse(target)} =")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("Lock", "RLock"):
                    locks[path.name] = locks.get(path.name, 0) + 1
        if found:
            setters[path.name] = found
    assert "precision.py" in setters, "precision.py sets no precision; the scan is broken"
    assert set(setters) == {"precision.py"}, {k: v for k, v in setters.items() if k != "precision.py"}
    assert locks.get("precision.py") == 1, locks


def _public_definitions(tree):
    """(qualified name, node) for each public function, class and method a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _annotated_class(annotation, classes):
    # the class an annotation names outright (C or "C"), else None
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    if isinstance(annotation, ast.Constant) and annotation.value in classes:
        return annotation.value
    return None


def _held_class(annotation, classes):
    # C for an annotation tuple[C, ...], list[C] or dict[K, C], else None
    if not (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)):
        return None
    kind, args = annotation.value.id, annotation.slice
    args = args.elts if isinstance(args, ast.Tuple) else [args]
    if kind == "list" and len(args) == 1:
        return _annotated_class(args[0], classes)
    if kind == "tuple" and len(args) == 2 and isinstance(args[1], ast.Constant) and args[1].value is ...:
        return _annotated_class(args[0], classes)
    if kind == "dict" and len(args) == 2:
        return _annotated_class(args[1], classes)
    return None


def _call_class(expr, classes, returns, held=False):
    # the class a call C(...) or f(...) evidently makes: C itself, or the class f's return annotation
    # names; with held, the class of the items of the container f(...) makes (returns["f[]"])
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if held:
            return returns.get(expr.func.id + "[]")
        return expr.func.id if expr.func.id in classes else returns.get(expr.func.id)
    return None


def _own_scope(node):
    # the nodes of one scope: nested function and class bodies left out
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _own_scope(child)


def _scope_bindings(scope, owner, classes, returns):
    """{name: class or None} for the names one scope binds.

    A name gets a class where the AST makes it evident: self or cls of a
    method, a parameter annotated with the class, or a name whose every
    binding is a call of the class or of a function annotated to return it.
    Under the key "name[]", a name whose every binding is a call of a
    function annotated to return tuple[C, ...], list[C] or dict[K, C] gets
    C, the class of name[i].  Any other binding leaves the name unresolved
    (None).
    """
    env, stores, typed, held = {}, {}, {}, {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        for p in params:
            env[p.arg] = _annotated_class(p.annotation, classes)
        decorators = {d.id for d in getattr(scope, "decorator_list", []) if isinstance(d, ast.Name)}
        if owner and params and "staticmethod" not in decorators:
            env[params[0].arg] = owner
    for node in _own_scope(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            typed.setdefault(node.targets[0].id, []).append(_call_class(node.value, classes, returns))
            held.setdefault(node.targets[0].id, []).append(_call_class(node.value, classes, returns, held=True))
    params = set(env)
    for name, count in stores.items():
        for key, made in ((name, typed.get(name, [])), (name + "[]", held.get(name, []))):
            env[key] = made[0] if len(made) == count and len(set(made)) == 1 and name not in params else None
    return env


def _attribute_receivers(tree, classes, returns):
    """(attribute name, line, receiver class or None) for every attribute load in a module."""
    found = []

    def receiver(expr, env):
        if isinstance(expr, ast.Name):
            return env[expr.id] if expr.id in env else (expr.id if expr.id in classes else None)
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            return env.get(expr.value.id + "[]")
        return _call_class(expr, classes, returns)

    def visit(scope, outer, owner):
        # a class body's names are not visible in its methods
        env = {**outer, **_scope_bindings(scope, owner, classes, returns)}
        inner = outer if isinstance(scope, ast.ClassDef) else env
        for node in _own_scope(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.append((node.attr, node.lineno, receiver(node.value, env)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(node, inner, owner if isinstance(scope, ast.ClassDef) else None)
            elif isinstance(node, ast.ClassDef):
                visit(node, inner, node.name)

    visit(tree, {}, None)
    return found


def _readme_test_only():
    """The dotted names the README's "Test-only functions" list names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Test-only functions\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+(?:\.\w+)+)`", section))


def _src_trees():
    return {p.stem: ast.parse(p.read_text()) for p in Path(zetachain.exact.__file__).parent.glob("*.py")}


def _dataclass_fields(trees):
    """{class name: (module, field names in order)} for each dataclass src/ defines."""
    found = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            annotated = [m for m in node.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
            found[node.name] = (mod, [m.target.id for m in annotated if "ClassVar" not in ast.unparse(m.annotation)])
    return found


def test_every_dataclass_field_is_passed_in_src_or_listed():
    # a dataclass field that no constructor call in src/ passes, by keyword
    # or by position, holds its default wherever the library builds the
    # class: an input only the tests set.  It goes, unless the README's
    # "Test-only functions" list names it as Module.Class.field.
    trees = _src_trees()
    fields = _dataclass_fields(trees)
    passed = set()  # (class, field)
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            cls = getattr(node.func, "id", getattr(node.func, "attr", None))
            if cls not in fields:
                continue
            names = fields[cls][1]
            for i, arg in enumerate(node.args):
                # *args may fill every field from its position on
                passed.update((cls, f) for f in (names[i:] if isinstance(arg, ast.Starred) else names[i : i + 1]))
            for kw in node.keywords:
                passed.update((cls, f) for f in (names if kw.arg is None else [kw.arg]))
    test_only = _readme_test_only()
    unused = [
        f"{mod}.{cls}.{name}"
        for cls, (mod, names) in fields.items()
        for name in names
        if (cls, name) not in passed and f"{mod}.{cls}.{name}" not in test_only
    ]
    assert sum(len(names) for _, names in fields.values()) > 20, "too few fields found; the scan is broken"
    assert not unused, f"no constructor call in src/ passes these fields, and no README line names them: {unused}"


def test_every_public_name_has_a_caller_or_a_readme_line():
    # a public function, class or method needs a reference somewhere in src/
    # outside its own definition (the CLI counts), or an entry in the README's
    # "Test-only functions" list; otherwise it is dead surface.  Functions and
    # classes are referenced by bare name, methods by attribute.  Where the
    # AST makes the receiver's class evident (self, an annotated parameter, a
    # constructor call, an item of a container an annotated function returns),
    # an attribute counts only for that class, its subclasses and its bases,
    # so a dead method sharing its name with a used one on an unrelated class
    # is caught.
    test_only = _readme_test_only()
    trees = _src_trees()
    bases = {}  # class name -> names of its bases
    returns = {}  # function name -> class its return annotation names
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for key, made in (
                    (node.name, _annotated_class(node.returns, bases)),
                    (node.name + "[]", _held_class(node.returns, bases)),
                ):
                    returns[key] = made if returns.get(key, made) == made else None

    def is_a(cls, base):
        return cls == base or any(is_a(b, base) for b in bases.get(cls, ()))

    names, attrs = [], []  # (module, identifier, line[, receiver class])
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((mod, node.id, node.lineno))
        attrs += [(mod, *found) for found in _attribute_receivers(tree, bases, returns)]
    defined, orphans = set(), []
    for mod, tree in trees.items():
        for qual, node in _public_definitions(tree):
            key = f"{mod}.{qual}"
            defined.add(key)
            own = range(node.lineno, node.end_lineno + 1)
            if "." in qual:
                cls, ident = qual.split(".")
                # a receiver typed as a base class may dispatch to this override
                used = any(
                    i == ident and (r is None or is_a(r, cls) or is_a(cls, r)) and not (m == mod and line in own)
                    for m, i, line, r in attrs
                )
            else:
                used = any(i == qual and not (m == mod and line in own) for m, i, line in names)
            if key not in test_only and not used:
                orphans.append(key)
    assert len(defined) > 50, "too few definitions found; the scan is broken"
    assert sum(r is not None for *_, r in attrs) > 50, "too few receivers resolved; the scan is broken"
    assert not orphans, f"no caller in src/ and no README test-only line: {sorted(orphans)}"
    # a README line may also name a dataclass field (the test above)
    fields = {f"{mod}.{cls}.{name}" for cls, (mod, names) in _dataclass_fields(trees).items() for name in names}
    assert test_only <= defined | fields, f"README lists names src/ does not define: {sorted(test_only - defined - fields)}"


def test_every_import_in_src_is_read():
    # a name a src/ module imports must appear as a name in that module (read,
    # or the root of an attribute); one that only the tests or perfbench's
    # tracer reach through the module is a dead import
    imported, unread = 0, []
    for mod, tree in sorted(_src_trees().items()):
        seen = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    imported += 1
                    if name not in seen:
                        unread.append(f"{mod}.{name}")
    assert imported > 50, "too few imports found; the scan is broken"
    assert not unread, f"imported and never read: {unread}"
