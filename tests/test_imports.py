"""Every name a module imports is used in that module, every private
module-level function and private method is referenced somewhere in the
package and does more than forward its own parameters to another
callable, every private attribute a class sets in __init__ is read
somewhere in the package, the unchecked Monomial and Element
constructors are used only in ring.py, the oracles import none of the
modules they check and keep no cache that grows without bound, spectrum.py
references no level walker, ring.py keeps one rule index, which the normal
form and the level walk both read, the corner layer reads no
Monomial.exponent and, in ideals.py and spectrum.py, nothing of the tuple
form its exponent codes replaced, no call passes _power_kill_exponent more than its three
arguments, _most_factors keeps one recursion and no other module names it,
ring.py holds the one coefficient rule, which ideals.py imports, neither
divides a coefficient but by Fraction(1, c), and FRACTION_ONE is gone,
ideal_colon and _saturate_by take one route, _term_quotient, which alone
tests a term against the Groebner basis, through _monomial_split,
no module but oracles.py names the int-bitmask form of a prime, which
the code class's flag masks replaced, every span name the benchmark
tracer wraps resolves in the package,
each package attribute named after a module is that module, and no
module imports dataclasses or typing, nor does importing the package
load them or inspect.

Checked with the standard-library ast module over src/torsionlab/*.py.
The package __init__.py is exempt from the import check: its imports are
re-exports.  Dunder functions and methods are exempt from the reference
check.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torsionlab"
SPANS = ROOT / "perfbench" / "spans.py"
# The unchecked constructors of ring.py: Monomial and Element.
TRUSTED_CONSTRUCTORS = ("_trusted_monomial", "_trusted_element")
# Span names the tracer still lists although the package no longer has
# them; the tracer belongs to the benchmark and is mended with it.
STALE_SPAN_NAMES = {"torsion.fairness_from_parts", "spectrum._witness_scan"}
# The level walkers of ring.py: the assassin layer reads corners instead.
LEVEL_WALKERS = {"_next_level", "normal_monomials_of_degree",
                 "normal_monomials_up_to"}
# The one rule index of a ring, the functions of ring.py that read it, and
# the second index it replaced.
RULE_INDEX = "_rules_by_var"
RULE_INDEX_READERS = ("_first_applicable", "_next_level")
SECOND_RULE_INDEX = {"_power_index", "_lhs_index"}
# The monomial kill exponent is exact, so no call passes it a cap.
KILL_EXPONENT = "_power_kill_exponent"
# The one generator count: one recursion, run per group of generators
# that share finite coordinates, private to ideals.py.  The masks of the
# shortcut it replaced.
GENERATOR_COUNT = "_most_factors"
SHORTCUT_MASKS = {"seen", "twice"}
# The one coefficient rule (an int while integral, else a Fraction), kept
# in ring.py and imported by ideals.py, the modules that do coefficient
# arithmetic; they take inverses as Fraction(1, c), since int / int gives a
# float.  The shared unit Fraction the rule replaced.
COEFFICIENT_RULE = "_small"
COEFFICIENT_MODULES = ("ring.py", "ideals.py")
FRACTION_UNIT = "FRACTION_ONE"
# A colon or saturation by a term takes one route, the quotient by a term,
# which asks one helper whether the term avoids every Groebner basis entry
# of two or more terms; none of them tests it itself.
TERM_SPLIT = "_monomial_split"
TERM_QUOTIENT = "_term_quotient"
TERM_SPLIT_CALLERS = (TERM_QUOTIENT,)
TERM_QUOTIENT_CALLERS = ("ideal_colon", "_saturate_by")
DISJOINTNESS_CALLS = {"isdisjoint", "intersection"}
# The corner layer reads one form of exponents, the ring's packed codes
# (ring._ExponentCodes): each handle encodes its generators once
# (IdealHandle._vectors).  Its readers in ideals.py and spectrum.py keep
# nothing of the tuple form the codes replaced: no math.inf for a free
# coordinate, no tuple converter, no tuple comparison and no tuple grlex.
CORNER_LAYER = ("ring.py", "ideals.py", "spectrum.py")
CODE_READERS = ("ideals.py", "spectrum.py")
CODE_CLASS = "_ExponentCodes"
TUPLE_FORM = {"_exponent_vector", "_exponent_monomial", "_below", "_grlex"}
# The package's records are plain slotted classes (ring._Record), so no
# module needs the class machinery of the standard library, and importing
# the package loads none of it: dataclasses compiles each generated method
# through exec, and it imports inspect.
CLASS_MACHINERY = {"dataclasses", "typing"}
UNLOADED_AT_IMPORT = ("dataclasses", "inspect", "typing")
# A prime has one form in the engine, the code class's flag mask, whose
# variable set variables alone builds.  The int-bitmask form it replaced:
# its converters and their slot.  oracles.py keeps a _bits of its own, as
# it stays independent of the engine.
PRIME_CONVERTER = "variables"
BITMASK_FORM = {"bits", "_bits", "_mask_vars"}
BITMASK_EXEMPT = "oracles.py"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _private_definitions(tree):
    """Module-level functions and methods of module-level classes whose
    name is _private but not a dunder."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if (isinstance(member, FUNCTIONS) and member.name.startswith("_")
                    and not (member.name.startswith("__")
                             and member.name.endswith("__"))):
                yield member


def _references(node, owners=()):
    """Names and attribute names under node, each skipped inside the body
    of a function or method of its own name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        else:
            name = None
        if name is not None and name not in owners:
            yield name
        if isinstance(child, FUNCTIONS):
            yield from _references(child, owners + (child.name,))
        else:
            yield from _references(child, owners)


def _unreferenced_private_functions(trees):
    """(file, line, name) of each _private module-level function or method
    that no code references, its own body apart."""
    defined = [(path, node.lineno, node.name)
               for path, tree in trees.items()
               for node in _private_definitions(tree)]
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(entry for entry in defined if entry[2] not in used)


def _passed_names(call):
    """The names a call passes, in order, or None when an argument is more
    than a bare name (a keyword argument counts only as name=name)."""
    values = [arg.value if isinstance(arg, ast.Starred) else arg
              for arg in call.args] + [kw.value for kw in call.keywords]
    if not all(isinstance(value, ast.Name) for value in values):
        return None
    if any(kw.arg not in (None, kw.value.id) for kw in call.keywords):
        return None
    return [value.id for value in values]


def _parameter_names(args):
    params = (args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs
              + [args.kwarg])
    return [p.arg for p in params if p is not None]


def _private_forwarders(trees):
    """(file, line, name) of each _private function or method whose body,
    past its docstring, only returns a call of another callable on its
    own parameters, unchanged."""
    out = []
    for path, tree in trees.items():
        for node in _private_definitions(tree):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)
                    and _passed_names(body[0].value)
                    == _parameter_names(node.args)):
                out.append((path, node.lineno, node.name))
    return sorted(out)


def _instance_names(method):
    """The names a constructor gives the instance it sets up: the first
    parameter of __init__; in __new__, each name bound to the result of a
    __new__ call."""
    if method.name == "__init__":
        return {method.args.args[0].arg}
    return {target.id for node in ast.walk(method)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "__new__"
            for target in node.targets if isinstance(target, ast.Name)}


def _unread_init_attributes(trees):
    """(file, line, name) of each _private attribute that a module-level
    class sets on its new instance in __init__ or __new__ and no code in
    the package reads."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    out = []
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, FUNCTIONS)
                        and init.name in ("__init__", "__new__")):
                    continue
                names = _instance_names(init)
                out.extend(
                    (path, node.lineno, node.attr)
                    for node in ast.walk(init)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in names
                    and node.attr.startswith("_")
                    and not (node.attr.startswith("__")
                             and node.attr.endswith("__"))
                    and node.attr not in read)
    return sorted(out)


def _trusted_constructor_uses(trees):
    """(file, line, name) of each reference to an unchecked constructor of
    ring.py outside ring.py, which alone keeps the invariants they skip."""
    return sorted(
        (path, node.lineno, name)
        for path, tree in trees.items() if path != "ring.py"
        for node in ast.walk(tree)
        for name in TRUSTED_CONSTRUCTORS
        if name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)))


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (path.name, line, name)
              for path in modules
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom x import y, z as w\nprint(y)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "w")]


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_functions(trees) == []


def test_unreferenced_private_function_is_reported():
    source = ("def _used():\n    pass\n\n"
              "def _recursive():\n    return _recursive()\n\n"
              "def __getattr__(name):\n    pass\n\n"
              "def public():\n    return _used()\n")
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("x = m._gone\n")}
    assert _unreferenced_private_functions(trees) == [
        ("m.py", 4, "_recursive")]


def test_unreferenced_private_method_is_reported():
    source = ("class Handle:\n"
              "    def __init__(self):\n        self._used()\n\n"
              "    def _used(self):\n        pass\n\n"
              "    def _orphan(self):\n        pass\n\n"
              "    def _recursive(self):\n        return self._recursive()\n\n"
              "    @property\n    def _cached(self):\n        pass\n\n"
              "def use(h):\n    return h._cached\n")
    trees = {"m.py": ast.parse(source)}
    assert _unreferenced_private_functions(trees) == [
        ("m.py", 8, "_orphan"), ("m.py", 11, "_recursive")]


def test_no_private_function_only_forwards_its_parameters():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _private_forwarders(trees) == []


def test_private_forwarder_is_reported():
    source = ("def _pass(ring, m):\n    \"\"\"Doc.\"\"\"\n"
              "    return Element.from_monomial(ring, m)\n\n"
              "def _star(*args, key=None, **kw):\n"
              "    return f(*args, key=key, **kw)\n\n"
              "def _swapped(a, b):\n    return f(b, a)\n\n"
              "def _dropped(a, b):\n    return f(a)\n\n"
              "def _changed(a):\n    return f(a + 1)\n\n"
              "def _named(a, b):\n    return f(a, b=b)\n\n"
              "def public(a):\n    return f(a)\n\n"
              "class Handle:\n"
              "    def _method(self, x):\n        return self.f(x)\n\n"
              "    def _bound(self, x):\n        return g(self, x)\n")
    trees = {"m.py": ast.parse(source)}
    assert _private_forwarders(trees) == [
        ("m.py", 1, "_pass"), ("m.py", 5, "_star"), ("m.py", 17, "_named"),
        ("m.py", 27, "_bound")]


def test_every_private_init_attribute_is_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_init_attributes(trees) == []


def test_unread_init_attribute_is_reported():
    source = ("class Ring:\n"
              "    def __init__(self):\n"
              "        self._read = {}\n"
              "        self._left = {}\n"
              "        self._elsewhere, self.public = None, 1\n"
              "        self.__dunder__ = 0\n"
              "        other._set = 2\n\n"
              "    def get(self):\n        return self._read\n\n"
              "    def reset(self):\n        self._left = None\n")
    trees = {"m.py": ast.parse(source),
             "n.py": ast.parse("x = ring._elsewhere\n")}
    assert _unread_init_attributes(trees) == [("m.py", 4, "_left")]


def test_unread_new_attribute_is_reported():
    source = ("class Handle:\n"
              "    def __new__(cls, table, key):\n"
              "        self = table[key] = super().__new__(cls)\n"
              "        self._read = {}\n"
              "        self._left = {}\n"
              "        cls._shared = 0\n"
              "        return self\n\n"
              "    def get(self):\n        return self._read\n")
    trees = {"m.py": ast.parse(source)}
    assert _unread_init_attributes(trees) == [("m.py", 5, "_left")]


def test_trusted_constructor_stays_in_ring():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    # The names still exist, so the check below cannot pass vacuously.
    assert set(TRUSTED_CONSTRUCTORS) <= {
        node.name for node in trees["ring.py"].body
        if isinstance(node, ast.FunctionDef)}
    assert _trusted_constructor_uses(trees) == []


def test_trusted_constructor_use_is_reported():
    trees = {
        "ring.py": ast.parse("def _trusted_monomial(p, d):\n    pass\n\n"
                             "one = _trusted_monomial((), 0)\n"
                             "zero = _trusted_element(None, {})\n"),
        "ideals.py": ast.parse("from .ring import _trusted_monomial\n"),
        "cli.py": ast.parse("from . import ring\n\n"
                            "m = ring._trusted_monomial(((0, 1),), 1)\n"
                            "e = ring._trusted_element(r, {m: 1})\n"),
        "spectrum.py": ast.parse("from .ring import _trusted_element as te\n"),
        "dsl.py": ast.parse("trusted_monomial = trusted_element = 1\n"),
    }
    assert _trusted_constructor_uses(trees) == [
        ("cli.py", 3, "_trusted_monomial"), ("cli.py", 4, "_trusted_element"),
        ("ideals.py", 1, "_trusted_monomial"),
        ("spectrum.py", 1, "_trusted_element")]


ENGINE_MODULES = {"ideals", "spectrum", "torsion", "families", "harness"}


def _package_imports(tree):
    """(line, module) of each package module a module imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            out.extend((node.lineno, name.split(".")[0]) for name in names)
        elif isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name.split(".")[1])
                       for alias in node.names
                       if alias.name.startswith("torsionlab."))
    return sorted(out)


def test_oracles_import_nothing_they_check():
    imports = _package_imports(ast.parse((PACKAGE / "oracles.py").read_text()))
    # The oracles read rings and elements, so the check cannot pass vacuously.
    assert "ring" in {module for _, module in imports}
    assert [entry for entry in imports if entry[1] in ENGINE_MODULES] == []


def test_engine_import_is_reported():
    tree = ast.parse("from .ring import Element\nfrom . import ideals\n"
                     "import torsionlab.torsion\nfrom .spectrum.x import y\n")
    assert [entry for entry in _package_imports(tree)
            if entry[1] in ENGINE_MODULES] == [
        (2, "ideals"), (3, "torsion"), (4, "spectrum")]


# The engine methods the oracles check, which oracles.py must not call: the
# membership memo, the level walkers, normal forms, the generator and
# corner facts of a handle, its Groebner basis, and products: Element.mul
# reduces through the engine's normal form, and Monomial.mul shares its
# name, so the oracles multiply on packed codes and call no mul at all.
ENGINE_READS = {"contains_monomial", "normal_form_monomial", "is_normal",
                "monomial_generators", "_components", "_vectors",
                "lifted_monomials", "_groebner", "mul"}
ENGINE_READ_PREFIX = "normal_monomials_"


def _engine_reads(tree):
    """(line, name) of each attribute or name under tree that is an engine
    method the oracles check."""
    return sorted((line, name) for line, name in _names(tree)
                  if name in ENGINE_READS
                  or name.startswith(ENGINE_READ_PREFIX))


def test_oracles_call_no_engine_method():
    """The oracles decide from ring.rules, ring.num_vars and generators."""
    engine = [ast.parse((PACKAGE / name).read_text())
              for name in ("ring.py", "ideals.py")]
    defined = {node.name for tree in engine for node in ast.walk(tree)
               if isinstance(node, FUNCTIONS)}
    # The methods still exist, so the check cannot pass vacuously.
    assert ENGINE_READS <= defined
    assert any(name.startswith(ENGINE_READ_PREFIX) for name in defined)
    oracles = ast.parse((PACKAGE / "oracles.py").read_text())
    assert _engine_reads(oracles) == []


def test_oracle_engine_read_is_reported():
    tree = ast.parse("ok = ideal.contains_monomial(m)\n"
                     "for m in ring.normal_monomials_up_to(3):\n"
                     "    ring.normal_form_monomial(m).is_zero\n"
                     "gens = [g for g in ideal.monomial_generators()]\n"
                     "walk = ring.normal_monomials_of_degree\n"
                     "ideal._vectors(); ring._components()\n"
                     "basis = ideal._groebner() or ideal.lifted_monomials()\n"
                     "from .ring import is_normal\n"
                     "normal = contains = monomials_up_to = 0\n"
                     "prod = g.mul(Element(ring, {m: Fraction(1)}))\n")
    assert _engine_reads(tree) == [
        (1, "contains_monomial"), (2, "normal_monomials_up_to"),
        (3, "normal_form_monomial"), (4, "monomial_generators"),
        (5, "normal_monomials_of_degree"), (6, "_components"),
        (6, "_vectors"), (7, "_groebner"), (7, "lifted_monomials"),
        (8, "is_normal"), (10, "mul")]


# The caches of oracles.py, each of which keeps one entry: the facts of the
# last ring, the monomials outside the last ideal, the witness
# annihilators of the last module and the rewriting of the last ring.
ORACLE_CACHES = {"_ring_probes", "_outside", "_witness_annihilators",
                 "_rewriting"}
MUTABLE_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict",
                 "Counter"}
MUTABLE_DISPLAYS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp,
                    ast.ListComp)


def _is_mutable(node):
    """Is node a display, comprehension or constructor call of a mutable
    container?"""
    if isinstance(node, MUTABLE_DISPLAYS):
        return True
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call)
            and (getattr(func, "id", None) or getattr(func, "attr", None))
            in MUTABLE_CALLS)


def _lru_maxsize(call):
    """The maxsize node of an lru_cache(...) call, or None when call is
    not one; a call without maxsize gives functools' default, 128."""
    func = call.func
    if (getattr(func, "id", None) or getattr(func, "attr", None)) \
            != "lru_cache":
        return None
    for kw in call.keywords:
        if kw.arg == "maxsize":
            return kw.value
    return call.args[0] if call.args else ast.Constant(128)


def _unbounded_caches(tree):
    """(line, kind) of each cache under tree that can grow without bound:
    functools.cache, lru_cache(maxsize=None), a module-level name bound to
    a mutable container, and a mutable default argument."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name == "cache" for alias in node.names)):
            out.append((node.lineno, "functools.cache"))
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and getattr(node.value, "id", None) == "functools"):
            out.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call):
            maxsize = _lru_maxsize(node)
            if (isinstance(maxsize, ast.Constant)
                    and maxsize.value is None):
                out.append((node.lineno, "lru_cache(maxsize=None)"))
        elif isinstance(node, FUNCTIONS):
            out.extend((default.lineno, "mutable default")
                       for default in node.args.defaults
                       + node.args.kw_defaults
                       if default is not None and _is_mutable(default))
    for node in tree.body:
        if (isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None and _is_mutable(node.value)):
            out.append((node.lineno, "module-level container"))
    return sorted(out)


def _one_entry_caches(tree):
    """Names of the module-level functions decorated lru_cache(maxsize=1)."""
    return {node.name for node in tree.body if isinstance(node, FUNCTIONS)
            for dec in node.decorator_list if isinstance(dec, ast.Call)
            and isinstance(_lru_maxsize(dec), ast.Constant)
            and _lru_maxsize(dec).value == 1}


def test_oracle_caches_are_bounded():
    """A long run keeps the last module and the last ring alive, not every
    ring it has seen."""
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    # The caches still exist, so the check cannot pass vacuously.
    assert ORACLE_CACHES <= _one_entry_caches(tree)
    assert _unbounded_caches(tree) == []


def test_unbounded_cache_is_reported():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "MEMO = {}\n"
                     "SEEN: set = set()\n"
                     "LIMIT = 3\n"
                     "@functools.cache\ndef f(x):\n    return x\n"
                     "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n"
                     "@lru_cache(None)\ndef h(x):\n    return x\n"
                     "@lru_cache(maxsize=1)\ndef k(x):\n    return {}\n"
                     "@lru_cache\ndef j(x):\n    return x\n"
                     "def m(x, memo={}):\n    cache = {}\n"
                     "    return cache.get(x)\n")
    assert _unbounded_caches(tree) == [
        (2, "functools.cache"), (3, "module-level container"),
        (4, "module-level container"), (6, "functools.cache"),
        (9, "lru_cache(maxsize=None)"), (12, "lru_cache(maxsize=None)"),
        (21, "mutable default")]
    assert _one_entry_caches(tree) == {"k"}


def _names(tree):
    """(line, name) of each name, attribute or imported name under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name is not None:
            yield node.lineno, name


def _walker_references(tree):
    """(line, name) of each name, attribute or imported name under tree
    that is a level walker."""
    return sorted((line, name) for line, name in _names(tree)
                  if name in LEVEL_WALKERS)


def test_assassin_scans_walk_no_level():
    ring = ast.parse((PACKAGE / "ring.py").read_text())
    # The walkers still exist, so the check cannot pass vacuously.
    assert LEVEL_WALKERS <= {node.name for node in ast.walk(ring)
                             if isinstance(node, FUNCTIONS)}
    spectrum = ast.parse((PACKAGE / "spectrum.py").read_text())
    assert _walker_references(spectrum) == []


def test_level_walker_reference_is_reported():
    tree = ast.parse("from .ring import Monomial, _next_level\n"
                     "index = ring._rules_by_var\n"
                     "out = ring.normal_monomials_up_to(3)\n"
                     "normal_monomials_of_degree = levels\n"
                     "next_level = 0\n")
    assert _walker_references(tree) == [
        (1, "_next_level"), (3, "normal_monomials_up_to"),
        (4, "normal_monomials_of_degree")]


def _rule_index_faults(tree):
    """(line, name) of each function defined or attribute assigned under
    tree that is named after the second rule index, and (0, name) of each
    reader of the rule index that is missing or reads no _rules_by_var."""
    faults, functions = [], {}
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            functions[node.name] = node
            name = node.name
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            name = node.attr
        else:
            continue
        if name in SECOND_RULE_INDEX:
            faults.append((node.lineno, name))
    for name in RULE_INDEX_READERS:
        reads = {getattr(node, "attr", None)
                 for node in ast.walk(functions.get(name, ast.Module()))}
        if RULE_INDEX not in reads:
            faults.append((0, name))
    return sorted(faults)


def test_ring_keeps_one_rule_index():
    """The normal form and the level walk read the same buckets."""
    ring = ast.parse((PACKAGE / "ring.py").read_text())
    assert _rule_index_faults(ring) == []


def test_second_rule_index_is_reported():
    tree = ast.parse("def _power_index(basis):\n    pass\n"
                     "def _next_level(ring, level):\n"
                     "    index = ring._lhs_index\n"
                     "class RingPresentation:\n"
                     "    def __init__(self):\n"
                     "        self._rules_by_var = {}\n"
                     "        self._lhs_index = {}\n")
    assert _rule_index_faults(tree) == [
        (0, "_first_applicable"), (0, "_next_level"), (1, "_power_index"),
        (8, "_lhs_index")]


def _exponent_reads(tree):
    """Lines of each attribute named exponent under tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "exponent")


def test_corner_layer_reads_no_monomial_exponent():
    trees = {name: ast.parse((PACKAGE / name).read_text())
             for name in CORNER_LAYER}
    # Monomial.exponent still exists, so the check cannot pass vacuously.
    assert "exponent" in {node.name for node in ast.walk(trees["ring.py"])
                          if isinstance(node, FUNCTIONS)}
    reads = {name: _exponent_reads(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_monomial_exponent_read_is_reported():
    tree = ast.parse("t = tuple(map(g.exponent, range(n)))\n"
                     "e = m.exponent(0)\n"
                     "exponent = m.exponents\n"
                     "def exponent(self, var):\n    pass\n")
    assert _exponent_reads(tree) == [1, 2]


def _tuple_form_reads(tree):
    """(line, name) of each tuple-form name under tree, and of each
    infinity: math.inf, inf imported from math, or float("inf")."""
    reads = [(line, name) for line, name in _names(tree)
             if name in TUPLE_FORM]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "inf"
                and getattr(node.value, "id", None) == "math"
                or isinstance(node, ast.ImportFrom) and node.module == "math"
                and any(alias.name == "inf" for alias in node.names)
                or isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "float"
                and any(getattr(arg, "value", None) == "inf"
                        for arg in node.args)):
            reads.append((node.lineno, "math.inf"))
    return sorted(reads)


def test_corner_layer_reads_one_exponent_form():
    ring = ast.parse((PACKAGE / "ring.py").read_text())
    # The code class exists, so the check cannot pass vacuously.
    assert CODE_CLASS in {node.name for node in ast.walk(ring)
                          if isinstance(node, ast.ClassDef)}
    reads = {name: _tuple_form_reads(ast.parse((PACKAGE / name).read_text()))
             for name in CODE_READERS}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_tuple_form_read_is_reported():
    tree = ast.parse("from math import inf\n"
                     "room = (math.inf,) * n\n"
                     "t = ring._exponent_vector(m, n)\n"
                     "if _below(t, c):\n"
                     "    free = float('inf')\n"
                     "from .ring import _exponent_monomial, _grlex\n"
                     "fits = codes.below(d, k) and math.isfinite(e)\n")
    assert _tuple_form_reads(tree) == [
        (1, "math.inf"), (2, "math.inf"), (3, "_exponent_vector"),
        (4, "_below"), (5, "math.inf"), (6, "_exponent_monomial"),
        (6, "_grlex")]


def _bitmask_names(tree):
    """(line, name) of each bitmask-form name under tree: a name,
    attribute or imported name, a function, class or parameter defined, or
    a string such as a slot."""
    found = [(line, name) for line, name in _names(tree)
             if name in BITMASK_FORM]
    for node in ast.walk(tree):
        name = (node.name if isinstance(node, FUNCTIONS + (ast.ClassDef,))
                else node.arg if isinstance(node, ast.arg)
                else node.value if isinstance(node, ast.Constant) else None)
        if name in BITMASK_FORM:
            found.append((node.lineno, name))
    return sorted(found)


def test_engine_keeps_one_prime_form():
    ring = ast.parse((PACKAGE / "ring.py").read_text())
    # The converter exists, so the check cannot pass vacuously.
    assert PRIME_CONVERTER in {
        node.name for cls in ast.walk(ring)
        if isinstance(cls, ast.ClassDef) and cls.name == CODE_CLASS
        for node in cls.body if isinstance(node, FUNCTIONS)}
    found = {path.name: _bitmask_names(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != BITMASK_EXEMPT}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_bitmask_form_is_reported():
    tree = ast.parse("class _ExponentCodes:\n"
                     "    __slots__ = ('shifts', '_bits')\n"
                     "    def bits(self, flags):\n"
                     "        return sum(compress(self._bits, flags))\n"
                     "from .ideals import _mask_vars\n"
                     "prime = codes.bits(codes.finite(c))\n"
                     "def convert(_mask_vars):\n    pass\n"
                     "variables = codes.variables(flags)\n")
    assert _bitmask_names(tree) == [
        (2, "_bits"), (3, "bits"), (4, "_bits"), (5, "_mask_vars"),
        (6, "bits"), (7, "_mask_vars")]


def _kill_exponent_calls(tree):
    """(line, argument count) of each call under tree whose callee is named
    _power_kill_exponent, keyword arguments counted."""
    return sorted(
        (node.lineno, len(node.args) + len(node.keywords))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and KILL_EXPONENT in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None)))


def _kill_exponent_calls_past_three(tree):
    return [line for line, count in _kill_exponent_calls(tree) if count > 3]


def test_kill_exponents_take_no_cap():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))}
    # Saturation, torsion and the families call it, so the check cannot
    # pass vacuously.
    assert sum(len(_kill_exponent_calls(tree)) for tree in trees.values()) >= 3
    past = {path: _kill_exponent_calls_past_three(tree)
            for path, tree in trees.items()}
    assert {path: lines for path, lines in past.items() if lines} == {}


def test_kill_exponent_cap_is_reported():
    tree = ast.parse("n = _power_kill_exponent(a, m, t, 2)\n"
                     "n = ideals._power_kill_exponent(a, m, t, cap=2)\n"
                     "n = _power_kill_exponent(a, m, t)\n"
                     "n = power_kill_exponent(a, m, t, 2)\n")
    assert _kill_exponent_calls_past_three(tree) == [1, 2]


def _generator_count_faults(trees):
    """(file, line, fault) for each name seen or twice that _most_factors
    in ideals.py assigns, for its nested functions when there is not
    exactly one, and for each name, attribute or imported name
    _most_factors in any other module."""
    faults = []
    for path, tree in trees.items():
        if path != "ideals.py":
            faults += [(path, line, "reference")
                       for line, name in _names(tree)
                       if name == GENERATOR_COUNT]
            continue
        count = next((node for node in tree.body if isinstance(node, FUNCTIONS)
                      and node.name == GENERATOR_COUNT), None)
        if count is None:
            faults.append((path, 0, "missing"))
            continue
        faults += [(path, node.lineno, "assigns " + node.id)
                   for node in ast.walk(count) if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Store)
                   and node.id in SHORTCUT_MASKS]
        nested = [node for node in ast.walk(count)
                  if isinstance(node, FUNCTIONS) and node is not count]
        if len(nested) != 1:
            faults.append((path, count.lineno, "%d nested" % len(nested)))
    return sorted(faults)


def test_generator_count_keeps_one_recursion():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _generator_count_faults(trees) == []


def test_generator_count_fault_is_reported():
    ideals = ast.parse("def _most_factors(gens, room):\n"
                       "    fit, seen, twice = [], 0, 0\n"
                       "    twice |= seen\n"
                       "    def most(j):\n        pass\n"
                       "    def count(g):\n        pass\n")
    torsion = ast.parse("from .ideals import _most_factors\n"
                        "n = ideals._most_factors(g, r)\n"
                        "most_factors = 0\n")
    assert _generator_count_faults({"ideals.py": ideals,
                                    "torsion.py": torsion}) == [
        ("ideals.py", 1, "2 nested"), ("ideals.py", 2, "assigns seen"),
        ("ideals.py", 2, "assigns twice"), ("ideals.py", 3, "assigns twice"),
        ("torsion.py", 1, "reference"), ("torsion.py", 2, "reference")]
    assert _generator_count_faults({"ideals.py": ast.parse("x = 1\n")}) == [
        ("ideals.py", 0, "missing")]


def _coefficient_rule_faults(trees):
    """(file, line, fault) for each true division in ring.py and ideals.py,
    each name, attribute or imported name FRACTION_ONE in any module, and
    each function _small that ideals.py defines; (file, 0, fault) when
    ring.py defines no module-level _small or ideals.py does not import it
    from ring."""
    faults = []
    for path, tree in trees.items():
        faults += [(path, line, "names " + FRACTION_UNIT)
                   for line, name in _names(tree) if name == FRACTION_UNIT]
        if path in COEFFICIENT_MODULES:
            faults += [(path, node.lineno, "divides")
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.Div)]
    ring, ideals = (trees.get(name, ast.Module(body=[]))
                    for name in COEFFICIENT_MODULES)
    if COEFFICIENT_RULE not in {node.name for node in ring.body
                                if isinstance(node, FUNCTIONS)}:
        faults.append(("ring.py", 0, "no " + COEFFICIENT_RULE))
    faults += [("ideals.py", node.lineno, "defines " + COEFFICIENT_RULE)
               for node in ast.walk(ideals) if isinstance(node, FUNCTIONS)
               and node.name == COEFFICIENT_RULE]
    if not any(isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module == "ring"
               and COEFFICIENT_RULE in {alias.name for alias in node.names}
               for node in ast.walk(ideals)):
        faults.append(("ideals.py", 0, "no import of " + COEFFICIENT_RULE))
    return sorted(faults)


def test_one_coefficient_rule():
    trees = {str(path.relative_to(PACKAGE)): ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert set(COEFFICIENT_MODULES) <= set(trees)
    assert _coefficient_rule_faults(trees) == []


def test_coefficient_rule_fault_is_reported():
    ring = ast.parse("from fractions import Fraction\n"
                     "FRACTION_ONE = Fraction(1)\n"
                     "def _small(c):\n    return c\n"
                     "x = FRACTION_ONE / c\n")
    ideals = ast.parse("from .ring import FRACTION_ONE, Element\n"
                       "def _small(c):\n    return c\n"
                       "y = 1 // c\n"
                       "y /= c\n")
    cli = ast.parse("from . import ring\n"
                    "z = 1 / 2 * ring.FRACTION_ONE\n")
    assert _coefficient_rule_faults({"ring.py": ring, "ideals.py": ideals,
                                     "cli.py": cli}) == [
        ("cli.py", 2, "names FRACTION_ONE"),
        ("ideals.py", 0, "no import of _small"),
        ("ideals.py", 1, "names FRACTION_ONE"),
        ("ideals.py", 2, "defines _small"),
        ("ideals.py", 5, "divides"),
        ("ring.py", 2, "names FRACTION_ONE"),
        ("ring.py", 5, "divides"),
        ("ring.py", 5, "names FRACTION_ONE")]
    assert _coefficient_rule_faults({"ring.py": ast.parse("x = 1\n")}) == [
        ("ideals.py", 0, "no import of _small"), ("ring.py", 0, "no _small")]


def _term_split_faults(ideals):
    """(line, fault) for each disjointness test (an isdisjoint or
    intersection call, or an &) in _term_quotient, ideal_colon or
    _saturate_by of the ideals.py tree; (0, fault) when _term_quotient does
    not call _monomial_split, when ideal_colon or _saturate_by does not
    call _term_quotient or calls _monomial_split itself, or when
    _monomial_split is missing or tests nothing with isdisjoint."""
    functions = {node.name: node for node in ideals.body
                 if isinstance(node, FUNCTIONS)}
    faults = []
    helper = functions.get(TERM_SPLIT)
    if helper is None or "isdisjoint" not in {
            name for _, name in _names(helper)}:
        faults.append((0, "no test in " + TERM_SPLIT))
    for caller in TERM_SPLIT_CALLERS + TERM_QUOTIENT_CALLERS:
        node = functions.get(caller, ast.Module(body=[]))
        names = {name for _, name in _names(node)}
        if caller in TERM_SPLIT_CALLERS and TERM_SPLIT not in names:
            faults.append((0, caller + " skips " + TERM_SPLIT))
        if caller in TERM_QUOTIENT_CALLERS:
            if TERM_QUOTIENT not in names:
                faults.append((0, caller + " skips " + TERM_QUOTIENT))
            if TERM_SPLIT in names:
                faults.append((0, caller + " calls " + TERM_SPLIT))
        faults += [(sub.lineno, caller + " tests disjointness")
                   for sub in ast.walk(node)
                   if (isinstance(sub, ast.Call) and getattr(
                       sub.func, "attr", None) in DISJOINTNESS_CALLS)
                   or (isinstance(sub, (ast.BinOp, ast.AugAssign))
                       and isinstance(sub.op, ast.BitAnd))]
    return sorted(faults)


def test_term_colon_and_saturation_split_through_one_helper():
    ideals = ast.parse((PACKAGE / "ideals.py").read_text())
    assert _term_split_faults(ideals) == []


def test_term_split_fault_is_reported():
    ideals = ast.parse(
        "def _monomial_split(basis, m):\n    return basis\n\n"
        "def _term_quotient(ideal, f, closed_form, eliminate):\n"
        "    return f.support & ideal.support\n\n"
        "def ideal_colon(ideal, f):\n"
        "    s = f.support\n"
        "    if any(not s.isdisjoint(t.support) for t in f.terms):\n"
        "        return s.intersection(f)\n\n"
        "def _saturate_by(ideal, g):\n"
        "    hit = _monomial_split(ideal, g) or g.mask & ideal.mask\n"
        "    return _term_quotient(ideal, g, hit, None)\n")
    assert _term_split_faults(ideals) == [
        (0, "_saturate_by calls _monomial_split"),
        (0, "_term_quotient skips _monomial_split"),
        (0, "ideal_colon skips _term_quotient"),
        (0, "no test in _monomial_split"),
        (5, "_term_quotient tests disjointness"),
        (9, "ideal_colon tests disjointness"),
        (10, "ideal_colon tests disjointness"),
        (13, "_saturate_by tests disjointness")]
    assert _term_split_faults(ast.parse("x = 1\n")) == [
        (0, "_saturate_by skips _term_quotient"),
        (0, "_term_quotient skips _monomial_split"),
        (0, "ideal_colon skips _term_quotient"),
        (0, "no test in _monomial_split")]


def _load_spans():
    """perfbench/spans.py executed from its source text, so nothing is
    written next to it."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _resolves(name):
    """Does layer.attr[.attr...] name an attribute of a torsionlab module?"""
    layer, *attrs = name.split(".")
    obj = importlib.import_module("torsionlab." + layer)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_traced_span_names_resolve():
    spans = _load_spans()
    names = set(spans.COUNTED_CLASSES) | set(spans.COUNTED_NAMES)
    names |= set(spans.PRIVATE_SPANS)
    names |= {n for group in spans.SPAN_GROUPS.values() for n in group}
    names |= {spans.ENUM, spans.NF, spans.SCAN, spans.SATURATION,
              spans.CLAIM, *spans.GAMMA}
    missing = {n for n in names if not _resolves(n)}
    assert missing == STALE_SPAN_NAMES


def test_package_attributes_name_their_modules():
    """import torsionlab.<name> as m binds the module src/torsionlab/<name>.py:
    no re-exported function shadows a module's name."""
    package = importlib.import_module("torsionlab")
    names = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if not path.stem.startswith("__"))
    assert "spectrum" in names
    for name in names:
        module = importlib.import_module("torsionlab." + name)
        assert getattr(package, name) is module, name


def _machinery_imports(tree):
    """(line, module) of each import of a CLASS_MACHINERY module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if name.split(".")[0] in CLASS_MACHINERY)
    return sorted(out)


def test_no_module_imports_class_machinery():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = ["%s:%d %s" % (path.name, line, name)
             for path in modules
             for line, name in _machinery_imports(ast.parse(path.read_text()))]
    assert found == []


def test_class_machinery_import_is_reported():
    tree = ast.parse("import os, dataclasses\nfrom typing import Optional\n"
                     "from .typing import x\nimport typingx\n"
                     "def f():\n    from dataclasses import replace\n")
    assert _machinery_imports(tree) == [
        (1, "dataclasses"), (2, "typing"), (6, "dataclasses")]


def test_package_import_loads_no_class_machinery():
    """A fresh interpreter without site imports the package from src."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, torsionlab\nprint(*sorted(set(sys.modules) & %r))"
         % (set(UNLOADED_AT_IMPORT),)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
