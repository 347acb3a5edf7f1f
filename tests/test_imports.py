"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the package, every memo is
bounded, no function imports, and the package's public names are pinned.

A stale import keeps a dependency alive after the code that needed it is
gone, and so does a private helper, class or constant that nothing reads
any more.  A memo without a bound grows for the life of the process, which
in ``--batch`` mode is a whole session.  The checks read each module's
syntax tree with the standard library's ``ast``, so they need no lint tool.
``__init__.py`` is left out of the import check, because its imports are
the package's public names; those are compared with a literal list, so a
public name is added or removed only on purpose.  The same holds for the
package's size: its line count has a ceiling, raised only on purpose.  The
README's table of work limits names every ``MAX_*`` constant and no other,
each with its value, so a limit is added, dropped or moved in both places.
A layer module is loaded on first use by one mechanism, the package's
``__getattr__``, so no function or method holds an import statement; the
module-level ``if TYPE_CHECKING:`` imports are outside every function.
A docstring's ``:func:``, ``:class:``, ``:data:`` or ``:meth:`` role that names
a package object names one the package defines, so a renamed or deleted
helper leaves no reference to itself behind.  No memoized function of
``mz.py`` calls a catalog verb: each verb checks its input once, and a
decider reads member verdicts from ``_decide_mz``, not through a verb.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import grdcalc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grdcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == ["os", "pi"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def importing_functions(source: str) -> list[str]:
    """The functions and methods of ``source`` that hold an ``import`` or ``from ... import``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node)):
                found.append(node.name)
    return sorted(found)


def test_importing_functions_are_found():
    source = (
        "import os\nif TYPE_CHECKING:\n    from a import b\n"
        "def f():\n    import grdcalc.mz as mz\n"
        "class C:\n    def m(self):\n        from .probes import x\n"
        "def g():\n    def inner():\n        import sys\n"
        "def kept():\n    return os.sep\n"
    )
    assert importing_functions(source) == ["f", "g", "inner", "m"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports(module):
    # a layer loads on first use one way: read through the package, which imports it
    assert importing_functions(module.read_text(encoding="utf-8")) == []


def _defined(statement: ast.stmt) -> set[str]:
    """The module-level names a top-level statement binds by def, class or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else []
    )
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_private`` names that no other top-level statement of ``sources`` reads.

    A read is a name, an attribute or an imported name; a statement reading
    only itself (a recursive helper) does not keep its own name alive.
    """
    statements = [s for source in sources for s in ast.parse(source).body]
    private = set()
    read = set()
    for statement in statements:
        own = _defined(statement)
        private |= {n for n in own if n.startswith("_") and not n.startswith("__")}
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name not in own:
                read.add(name)
    return sorted(private - read)


def test_unread_private_names_are_found():
    sources = [
        "_USED = 1\n_DEAD = 2\ndef _helper(n):\n    return _helper(n - 1)\nclass _Kept: pass\n",
        "from .a import _Kept\nprint(_USED)\n",
    ]
    assert unread_private_names(sources) == ["_DEAD", "_helper"]


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def _applied_name(node: ast.expr) -> str:
    """The name of the function a decorator or a call applies, plain or module-qualified."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def unbounded_memos(source: str) -> list[str]:
    """Functions taking arguments whose ``lru_cache`` or ``cache`` decorator
    gives no integer ``maxsize``.

    ``cache`` and a bare ``lru_cache`` count as unbounded; a function with
    no parameters has one entry to keep, so any memo on it is bounded.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = node.args
        if not (params.posonlyargs or params.args or params.vararg or params.kwonlyargs
                or params.kwarg):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            name = _applied_name(decorator)
            if name not in ("lru_cache", "cache"):
                continue
            size = None
            if call:
                given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                size = given[0] if given else None
            bounded = isinstance(size, ast.Constant) and type(size.value) is int
            if name == "cache" or not bounded:
                found.append(node.name)
    return found


def test_unbounded_memos_are_found():
    source = (
        "from functools import cache, lru_cache\n"
        "import functools\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@cache\ndef c(x): pass\n"
        "@functools.lru_cache(None)\ndef d(x): pass\n"
        "@lru_cache(maxsize=8)\ndef kept(x): pass\n"
        "@functools.lru_cache(0)\ndef counted(x): pass\n"
        "@cache\ndef no_arguments(): pass\n"
    )
    assert unbounded_memos(source) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_is_bounded(module):
    assert unbounded_memos(module.read_text(encoding="utf-8")) == []


CATALOG_VERBS = ("mz_check", "mz_set_check", "n_times_check")


def memos_calling_verbs(source: str) -> list[tuple[str, str]]:
    """``(function, verb)`` for each call of a catalog verb inside a function memoized by
    ``lru_cache`` or ``cache``, by plain or attribute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(_applied_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and _applied_name(call) in CATALOG_VERBS:
                found.append((node.name, _applied_name(call)))
    return found


def test_memos_calling_verbs_are_found():
    # the two set and chain deciders as they once read: each decided members through the verb
    source = (
        "from functools import lru_cache\n"
        "import functools\n"
        "@lru_cache(maxsize=256)\n"
        "def _decide_mz_set(forms, n):\n"
        "    schemes = list(map(_from_form, forms))\n"
        "    member_verdicts = [mz_check(s) for s in schemes]\n"
        "@functools.lru_cache(maxsize=256)\n"
        "def _decide_chain(forms):\n"
        "    stages = list(map(_from_form, forms))\n"
        "    return tuple((order, mz.mz_check(s)) for order, s in enumerate(stages, 1))\n"
        "@lru_cache(maxsize=256)\n"
        "def _decide_mz(form, n, symmetric_mode):\n"
        "    return equivalent_gaussian(_from_form(form, n))\n"
        "def mz_set_check(schemes):\n"
        "    return _decide_mz_set(tuple([mz_check(s) for s in schemes]), 1)\n"
    )
    assert memos_calling_verbs(source) == [("_decide_mz_set", "mz_check"), ("_decide_chain", "mz_check")]


def test_no_memoized_decider_calls_a_catalog_verb():
    assert memos_calling_verbs((PACKAGE / "mz.py").read_text(encoding="utf-8")) == []


ROLE = re.compile(r":(?:func|class|data|meth):`([^`]+)`")


def stale_roles(sources: dict[str, str]) -> list[str]:
    """The roles in the docstrings of ``sources`` (module name to source) that name a package
    object no module of ``sources`` defines at top level.

    A role names a package object when it is undotted or qualified by ``grdcalc`` (then any
    module may define it) or by a module of ``sources`` (then that one must); roles into
    other modules, such as ``fractions.Fraction``, are skipped.  Only the first name after
    the qualifier is looked up.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = {name: set().union(*map(_defined, tree.body)) for name, tree in trees.items()}
    anywhere = set(defined).union(*defined.values())
    stale = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for target in ROLE.findall(ast.get_docstring(node) or ""):
                parts = target.lstrip("~!").split(".")
                if parts[0] == "grdcalc" and len(parts) > 1:
                    parts = parts[1:]
                elif len(parts) > 1 and parts[0] not in defined:
                    continue
                names = defined[parts.pop(0)] if len(parts) > 1 and parts[0] in defined else anywhere
                if parts[0] not in names:
                    stale.append(target)
    return stale


def test_stale_roles_are_found():
    sources = {
        "a": '"""See :func:`kept`, :class:`~grdcalc.a.Kept`, :func:`gone` and :data:`b.LIMIT`."""\n'
             "def kept():\n    \"\"\":meth:`Kept.run` and :func:`grdcalc.b.kept`\"\"\"\n"
             "class Kept:\n    \"\"\":class:`fractions.Fraction`, :func:`grdcalc.lost`\"\"\"\n",
        "b": "LIMIT = 3\n# a comment is no docstring: :func:`ignored`\n",
    }
    assert stale_roles(sources) == ["gone", "grdcalc.b.kept", "grdcalc.lost"]


def test_every_docstring_role_names_a_defined_object():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert stale_roles(sources) == []


PUBLIC_NAMES = [
    "CERT_D2S_NOT_MZ", "CERT_D31", "CERT_GAUSSIAN", "CERT_GGR_SET", "CERT_RIEMANN_NOT_MZ",
    "CONJECTURE_GAUSSIAN", "CONJECTURE_NONE", "CONJECTURE_RIEMANN", "CONTINUITY",
    "CalculusError", "Certificate", "ContinuityMarker", "DuplicateNodes", "DuplicateOrder",
    "EquivalenceVerdict", "FamilyKind", "FunctionOracle", "GAUSSIAN_AFFINE",
    "GAUSSIAN_AFFINE_SHIFT", "GAUSSIAN_FORWARD", "GAUSSIAN_SYMMETRIC", "GaussianMatch",
    "IdentityCheckFailed", "InconsistentSystem", "IndexOutOfRange", "InvalidOrder",
    "InvalidQ", "MZ_TILDE", "MZ_TILDE_SYMMETRIC", "MissingOrder", "MixedOrders",
    "MzVerdict", "NTimesReport", "NotNormalized", "OrderBudgetExceeded", "OrderInfo",
    "PATH_FAST_DISTINCT", "PATH_FAST_NONNEG", "PATH_GENERAL", "PATH_SYMMETRIC", "PEANO_ALL_MZ",
    "PEANO_IDENTITY",
    "PEANO_UNKNOWN", "ProbeBoundExceeded", "ProbeConfig", "ProbeReport", "ProbeSequence",
    "REASON_ORDER", "REASON_SKEW", "REASON_SKEW_ZERO", "REASON_SYMMETRIC", "RIEMANN",
    "RIEMANN_SHIFT", "SCRIPT_D", "SCRIPT_D_BAR", "STATUS_MZ", "STATUS_NOT_MZ",
    "STATUS_OPEN", "SYMMETRIC_RIEMANN", "Scheme", "Term", "UnderdeterminedSystem",
    "VERDICT_CONVERGES", "VERDICT_DIVERGES", "VERDICT_INCONCLUSIVE", "Witness",
    "WrongNodeCount", "ZeroDilation", "ZeroInput", "ZeroNodeParityError", "ZeroScale",
    "ZeroScheme", "ZeroStep", "abs_oracle", "canonicalize", "class_member", "combine",
    "construct_exact", "construct_exact_symmetric", "decide_equivalent", "decompose",
    "equivalence", "equivalent_gaussian", "eval_quotient", "families", "family_nodes",
    "format_family", "format_oracle", "format_rational", "format_scheme", "gaussian_affine",
    "gaussian_affine_shift", "gaussian_forward", "gaussian_symmetric", "ggr_set",
    "is_scale", "is_symmetric", "limit_probe", "match_to_json_dict", "moment",
    "monomial_oracle", "mz", "mz_check", "mz_set_check", "mz_tilde", "mz_tilde_symmetric",
    "n_times_check", "named_scheme", "normalized", "order_info", "parse_family",
    "parse_oracle", "parse_rational", "peano_probe", "polynomial_oracle", "probes",
    "qbinom", "recognize_gaussian", "reflect", "riemann", "riemann_shift", "scale",
    "scale_partners", "scheme", "scheme_from_json", "scheme_to_json_dict", "script_d",
    "script_d_bar", "sgnsq_oracle", "subgroup_membership", "subgroup_monomial_oracle",
    "symmetric_riemann", "verify_quantum_ggr", "verify_witness"
]


def test_public_names_are_pinned():
    assert sorted(grdcalc.__all__) == PUBLIC_NAMES


# The line count of src/grdcalc/*.py, as `wc -l` counts it, held exactly: a
# change that shrinks the package leaves no slack for a later one to grow back
# into unseen.  Any change to src/ sets the new count here and says why.
SRC_LINE_CEILING = 3622


def test_source_line_count_is_the_ceiling():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines == SRC_LINE_CEILING


README = PACKAGE.parents[1] / "README.md"
LIMITS_HEADER = "| input | size rule | limit | constant | refusal |"


def limit_table_rows() -> list[list[str]]:
    """The cells of each row of the README's limit table, below its header and rule."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(LIMITS_HEADER) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        # a `\|` inside a cell is a literal bar, not a cell boundary
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def module_limits() -> dict[str, int]:
    """``module.MAX_*`` for every module-level ``MAX_*`` assignment of the package, with its value."""
    found = {}
    for path in MODULES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined(statement):
                if name.startswith("MAX_"):
                    module = importlib.import_module(f"grdcalc.{path.stem}")
                    found[f"{path.stem}.{name}"] = getattr(module, name)
    return found


def test_readme_limit_table_names_exactly_the_limit_constants():
    rows = limit_table_rows()
    assert rows and all(len(row) == 5 for row in rows)
    limits = module_limits()
    named = {row[3].strip("`") for row in rows}
    assert named == set(limits)
    for _, _, limit, constant, _ in rows:
        # "128", "4,300" or "2²² = 4,194,304": the last number written out
        assert int(limit.rpartition("=")[2].replace(",", "")) == limits[constant.strip("`")], limit
