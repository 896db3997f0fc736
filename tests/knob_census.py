"""Call-site census of the settings under ``src/`` and the CLI's flags.

A *setting* is a parameter with a default or a dataclass / NamedTuple
field with a default. It counts as set when some call resolved to its
function (or class) passes it, by keyword or by position, or when a
``dataclasses.replace`` passes its name. Calls are resolved through
imports and package re-exports, ``self`` / ``cls`` / ``super()``,
``Class.method`` and module attributes; a method call on any other
receiver resolves to every scanned method of that name (so a parameter
can look set when it is not, never the reverse). A call that spreads
``*args`` or ``**kwargs`` into a resolved target counts every parameter
it could reach as set. Functions handed around as values (callbacks)
are listed separately, since whoever calls them is not a call site.

A CLI flag counts as run when a test passes it in an argument list
beginning with its subcommand, or a CI step, README, EXPERIMENTS,
DESIGN or the verify skill shows it on a ``repro <subcommand>`` line.

Run from the repository root::

    python -m tests.knob_census            # totals
    python -m tests.knob_census --list     # every setting no call sets
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = {"src": ROOT / "src", "bench": ROOT / "bench",
                "tests": ROOT / "tests", "examples": ROOT / "examples"}
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md",
        ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")


@dataclass(eq=False)
class Func:
    qualname: str
    module: str
    params: list[str]          # positional parameters, in order
    kwonly: list[str]
    defaults: dict[str, int]   # defaulted parameter -> line
    star: bool = False         # takes *args
    starstar: bool = False     # takes **kwargs
    kind: str = "function"     # function | method | classmethod | staticmethod


@dataclass(eq=False)
class Klass:
    qualname: str
    module: str
    bases: list[ast.expr]
    fields: list[str] = field(default_factory=list)
    defaults: dict[str, int] = field(default_factory=dict)
    is_record: bool = False    # dataclass or NamedTuple
    methods: dict[str, Func] = field(default_factory=dict)
    resolved_bases: list[Klass] = field(default_factory=list)
    subclasses: list[Klass] = field(default_factory=list)


def _module_name(root_key: str, path: Path) -> str:
    rel = path.relative_to(SOURCE_ROOTS[root_key] if root_key == "src"
                           else ROOT)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _func(node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str,
          module: str, in_class: bool) -> Func:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults: dict[str, int] = {}
    for name, default in zip(positional[len(positional) - len(args.defaults):],
                             args.defaults):
        defaults[name] = default.lineno
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaults[a.arg] = default.lineno
    decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
    kind = "function"
    if in_class:
        kind = next((d for d in ("classmethod", "staticmethod") if d in decorators),
                    "method")
    return Func(qualname, module, positional, [a.arg for a in args.kwonlyargs],
                defaults, args.vararg is not None, args.kwarg is not None, kind)


def _is_record(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", "")
        if name == "dataclass":
            return True
    return any(getattr(b, "id", getattr(b, "attr", "")) == "NamedTuple"
               for b in node.bases)


class Census:
    def __init__(self) -> None:
        self.trees: dict[str, tuple[str, Path, ast.Module]] = {}
        self.funcs: dict[str, Func] = {}
        self.classes: dict[str, Klass] = {}
        self.imports: dict[str, dict[str, str]] = defaultdict(dict)
        self.set_by: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.escaped: set[str] = set()
        self.by_method_name: dict[str, list[Func]] = defaultdict(list)
        self.fields_by_name: dict[str, list[Klass]] = defaultdict(list)
        self.extra: dict[str, set[tuple[str, str]]] = defaultdict(set)
        self.forwards: dict[str, list[tuple[str, list[str]]]] = defaultdict(list)
        for key, root in SOURCE_ROOTS.items():
            for path in sorted(root.rglob("*.py")):
                module = _module_name(key, path)
                tree = ast.parse(path.read_text(), str(path))
                self.trees[module] = (key, path, tree)
        for module, (_, _, tree) in self.trees.items():
            self._collect(module, tree)
        for klass in self.classes.values():
            for base in klass.bases:
                target = self._resolve_expr(klass.module, base, None)
                if isinstance(target, Klass):
                    klass.resolved_bases.append(target)
                    target.subclasses.append(klass)
        for module, (key, _, tree) in self.trees.items():
            self._scan_calls(module, key, tree)
        self._propagate()

    # -- definitions -------------------------------------------------
    def _collect(self, module: str, tree: ast.Module) -> None:
        imports = self.imports[module]
        package = module if self.trees[module][1].name == "__init__.py" \
            else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    anchor = anchor[: len(anchor) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = alias.name
                    else:
                        imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        if module.endswith(("perf", "workloads")) or "lazy_exports" in imports:
            self._lazy_origins(module, tree)
        for node in tree.body:
            self._define(module, module, node)
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                imports[node.targets[0].id] = f"{module}.{node.value.id}"

    def _lazy_origins(self, module: str, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for k, v in zip(node.keys, node.values):
                    if isinstance(k, ast.Constant) and isinstance(v, ast.Tuple):
                        for name in v.elts:
                            if isinstance(name, ast.Constant):
                                self.imports[module][name.value] = (
                                    f"{module}.{k.value}.{name.value}")

    def _define(self, module: str, prefix: str, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{node.name}"
            self.funcs[qual] = _func(node, qual, module, False)
            for inner in _nested_defs(node):
                self._define(module, qual, inner)
        elif isinstance(node, ast.ClassDef):
            qual = f"{prefix}.{node.name}"
            klass = Klass(qual, module, list(node.bases), is_record=_is_record(node))
            self.classes[qual] = klass
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _func(item, f"{qual}.{item.name}", module, True)
                    klass.methods[item.name] = method
                    self.funcs[method.qualname] = method
                    self.by_method_name[item.name].append(method)
                    for inner in _nested_defs(item):
                        self._define(module, method.qualname, inner)
                elif (klass.is_record and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and "ClassVar" not in ast.unparse(item.annotation)):
                    name = item.target.id
                    klass.fields.append(name)
                    self.fields_by_name[name].append(klass)
                    if item.value is not None and not _no_init(item.value):
                        klass.defaults[name] = item.lineno
                elif isinstance(item, ast.ClassDef):
                    self._define(module, qual, item)

    # -- resolution --------------------------------------------------
    def _lookup(self, dotted: str, depth: int = 0) -> Func | Klass | str | None:
        if dotted in self.funcs:
            return self.funcs[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        if dotted in self.trees:
            return dotted
        module, _, name = dotted.rpartition(".")
        if depth < 8 and module in self.imports and name in self.imports[module]:
            return self._lookup(self.imports[module][name], depth + 1)
        return None

    def _resolve_name(self, module: str, name: str) -> Func | Klass | str | None:
        local = self._lookup(f"{module}.{name}")
        if local is not None:
            return local
        if name in self.imports[module]:
            return self._lookup(self.imports[module][name])
        return None

    def _resolve_expr(self, module: str, expr: ast.expr,
                      klass: Klass | None) -> Func | Klass | str | None:
        if isinstance(expr, ast.Name):
            if klass is not None and expr.id == "cls":
                return klass
            return self._resolve_name(module, expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._resolve_expr(module, expr.value, klass)
            if isinstance(owner, str):
                return self._lookup(f"{owner}.{expr.attr}")
            if isinstance(owner, Klass):
                return self._method(owner, expr.attr)
        return None

    def _method(self, klass: Klass, name: str) -> Func | None:
        for k in self._mro(klass):
            if name in k.methods:
                return k.methods[name]
        return None

    def _mro(self, klass: Klass) -> list[Klass]:
        order, todo = [], [klass]
        while todo:
            k = todo.pop(0)
            if k not in order:
                order.append(k)
                todo.extend(k.resolved_bases)
        return order

    def _descendants(self, klass: Klass) -> list[Klass]:
        out, todo = [], [klass]
        while todo:
            k = todo.pop()
            if k not in out:
                out.append(k)
                todo.extend(k.subclasses)
        return out

    # -- calls -------------------------------------------------------
    def _scan_calls(self, module: str, key: str, tree: ast.Module) -> None:
        census = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.klass: list[Klass | None] = [None]
                self.prefix = [module]
                self.scope = [_Scope(None, None, _dict_keys(tree), ())]

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                qual = f"{self.prefix[-1]}.{node.name}"
                self.klass.append(census.classes.get(qual))
                self.prefix.append(qual)
                self.generic_visit(node)
                self.prefix.pop()
                self.klass.pop()

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                qual = f"{self.prefix[-1]}.{node.name}"
                kwarg = node.args.kwarg.arg if node.args.kwarg else None
                dicts = {**self.scope[-1].dicts, **_dict_keys(node, kwarg)}
                self.prefix.append(qual)
                self.scope.append(_Scope(qual, kwarg, dicts,
                                         self.scope[-1].enclosing + (qual,)))
                self.generic_visit(node)
                self.scope.pop()
                self.prefix.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Attribute(self, node: ast.Attribute) -> None:
                if not isinstance(node.ctx, ast.Load):
                    self.generic_visit(node)
                    return
                klass = self.klass[-1]
                if (isinstance(node.value, ast.Name) and node.value.id in
                        ("self", "cls") and klass is not None):
                    for k in census._descendants(klass):
                        method = census._method(k, node.attr)
                        if method is not None:
                            census.escaped.add(method.qualname)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                census._call(module, key, node, self.klass[-1], self.scope[-1])
                for arg in node.args:
                    self.visit_argument(arg)
                for kw in node.keywords:
                    self.visit_argument(kw.value)
                self.visit_callee(node.func)

            def visit_callee(self, func: ast.expr) -> None:
                if isinstance(func, ast.Attribute):
                    self.visit(func.value)
                elif not isinstance(func, ast.Name):
                    self.visit(func)

            def visit_argument(self, arg: ast.expr) -> None:
                target = census._resolve_expr(module, arg, self.klass[-1])
                if isinstance(target, Func):
                    census.escaped.add(target.qualname)
                self.visit(arg)

        Visitor().visit(tree)

    def _targets(self, module: str, func: ast.expr,
                 klass: Klass | None) -> list[tuple[Func | Klass, bool]]:
        """Callees of ``func(...)``, each with whether the call site
        leaves the first parameter (``self`` / ``cls``) to the binding."""
        def on_instance(found):
            return [(m, m.kind in ("method", "classmethod"))
                    for m in dict.fromkeys(found)]
        if isinstance(func, ast.Attribute):
            value = func.value
            if (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "super"
                    and klass is not None):
                return on_instance(m for b in klass.resolved_bases
                                   if (m := self._method(b, func.attr)) is not None)
            if isinstance(value, ast.Name) and value.id in ("self", "cls") \
                    and klass is not None:
                return on_instance(m for k in self._descendants(klass)
                                   if (m := self._method(k, func.attr)) is not None)
            owner = self._resolve_expr(module, value, klass)
            if isinstance(owner, str):
                target = self._lookup(f"{owner}.{func.attr}")
                return [(target, False)] if isinstance(target, (Func, Klass)) else []
            if isinstance(owner, Klass):
                method = self._method(owner, func.attr)
                return [(method, method.kind == "classmethod")] if method else []
            return on_instance(self.by_method_name.get(func.attr, []))
        if isinstance(func, ast.Name) and func.id == "cls" and klass is not None:
            return [(k, False) for k in self._descendants(klass)]
        if (isinstance(func, ast.Call) and getattr(func.func, "id", "") == "type"
                and klass is not None):
            return [(k, False) for k in self._descendants(klass)]
        target = self._resolve_expr(module, func, klass)
        return [(target, False)] if isinstance(target, (Func, Klass)) else []

    def _call(self, module: str, key: str, node: ast.Call,
              klass: Klass | None, scope: _Scope) -> None:
        name = getattr(node.func, "id", getattr(node.func, "attr", ""))
        if name in ("replace", "_replace") and (node.args or name == "_replace"):
            for kw in node.keywords:
                for k in self.fields_by_name.get(kw.arg or "", []):
                    self.set_by[(k.qualname, kw.arg)].add(key)
            return
        if name == "partial" and node.args:
            inner = ast.Call(func=node.args[0], args=node.args[1:],
                             keywords=node.keywords)
            self._call(module, key, inner, klass, scope)
        targets = self._targets(module, node.func, klass)
        enclosing = self.funcs.get(scope.func or "")
        if (getattr(node.func, "id", "") == "cls"
                and (enclosing is None or enclosing.kind != "classmethod")):
            targets = []  # a class handed in as a value: not followed
        if isinstance(node.func, ast.Name):
            local = next((self.funcs.get(f"{p}.{node.func.id}") for p in
                          reversed(scope.enclosing)
                          if f"{p}.{node.func.id}" in self.funcs), None)
            targets = [(local, False)] if local is not None else targets
        for target, drop_first in targets:
            for owner, params, kwonly in self._signature(target, drop_first):
                self._mark(owner, params, kwonly, node, key, scope)

    def _signature(self, target: Func | Klass, drop_first: bool):
        """``(owner, positional, kwonly)`` that a call of ``target`` binds."""
        if isinstance(target, Func):
            params = target.params[1:] if drop_first else target.params
            yield target.qualname, params, target.kwonly
            return
        for k in self._mro(target):
            if "__init__" in k.methods:
                init = k.methods["__init__"]
                yield init.qualname, init.params[1:], init.kwonly
                return
            if k.is_record:
                records = [r for r in self._mro(target) if r.is_record]
                fields = list(dict.fromkeys(
                    f for r in reversed(records) for f in r.fields))
                for r in records:
                    yield r.qualname, fields, []
                return

    def _mark(self, owner: str, params: list[str], kwonly: list[str],
              node: ast.Call, key: str, scope: _Scope) -> None:
        spread = any(isinstance(a, ast.Starred) for a in node.args)
        plain = [a for a in node.args if not isinstance(a, ast.Starred)]
        first_star = next((i for i, a in enumerate(node.args)
                           if isinstance(a, ast.Starred)), len(node.args))
        for name in params[:len(plain)] if not spread else params:
            if spread and params.index(name) < first_star:
                self.set_by[(owner, name)].add(key)
            elif spread:
                self.set_by[(owner, name)].add(key + ":*args")
            else:
                self.set_by[(owner, name)].add(key)
        for kw in node.keywords:
            if kw.arg is not None:
                self.set_by[(owner, kw.arg)].add(key)
                if kw.arg not in params and kw.arg not in kwonly:
                    self.extra[owner].add((kw.arg, key))
                continue
            keys, forwarded = _spread_keys(kw.value, scope)
            if forwarded:
                self.forwards[scope.func].append((owner, params + kwonly))
            for name in (keys if keys is not None else params + kwonly):
                self.set_by[(owner, name)].add(
                    key if keys is not None else key + ":**kwargs")

    def _propagate(self) -> None:
        """Keywords a caller passes into a ``**kwargs`` that the callee
        spreads on into another call set that call's parameters."""
        changed = True
        while changed:
            changed = False
            for func, edges in self.forwards.items():
                for owner, names in edges:
                    for name, key in list(self.extra.get(func, ())):
                        if name in names and key not in self.set_by[(owner, name)]:
                            self.set_by[(owner, name)].add(key)
                            changed = True
                        elif name not in names and (name, key) not in self.extra[owner]:
                            self.extra[owner].add((name, key))
                            changed = True

    # -- report ------------------------------------------------------
    def settings(self):
        """Every defaulted parameter and record field under ``src/``."""
        for func in self.funcs.values():
            if self.trees[func.module][0] != "src":
                continue
            for name, line in func.defaults.items():
                yield func.qualname, name, func.module, line, func
        for klass in self.classes.values():
            if self.trees[klass.module][0] != "src":
                continue
            for name, line in klass.defaults.items():
                yield klass.qualname, name, klass.module, line, klass

    def setters(self, owner: str, name: str) -> set[str]:
        return {s.partition(":")[0] for s in self.set_by.get((owner, name), ())}


FORWARDED = "**"


@dataclass(eq=False)
class _Scope:
    func: str | None               # enclosing function's qualname
    kwarg: str | None              # its ``**kwargs`` parameter
    dicts: dict[str, set[str] | None]
    enclosing: tuple[str, ...]     # qualnames of the enclosing functions


def _literal_keys(value: ast.expr) -> set[str] | None:
    """Keys of a ``{...}`` or ``dict(...)`` literal, if all are known."""
    if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in value.keys):
        return {k.value for k in value.keys}
    if (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "dict"
            and not value.args and all(kw.arg for kw in value.keywords)):
        return {kw.arg for kw in value.keywords}
    return None


def _spread_keys(value: ast.expr, scope: _Scope) -> tuple[set[str] | None, bool]:
    """Keys a ``**value`` can pass (``None``: unknown), and whether it
    forwards the enclosing function's own ``**kwargs``."""
    if isinstance(value, ast.Name):
        if value.id == scope.kwarg:
            return set(), True
        keys = scope.dicts.get(value.id)
        if keys is not None and FORWARDED in keys:
            return keys - {FORWARDED}, True
        return keys, False
    if isinstance(value, ast.Dict):
        keys: set[str] | None = set()
        forwarded = False
        for k, v in zip(value.keys, value.values):
            if k is None:
                inner, fwd = _spread_keys(v, scope)
                forwarded |= fwd
                keys = None if inner is None or keys is None else keys | inner
            elif isinstance(k, ast.Constant) and keys is not None:
                keys.add(k.value)
            else:
                keys = None
        return keys, forwarded
    return _literal_keys(value), False


def _dict_keys(scope: ast.AST, kwarg: str | None = None
               ) -> dict[str, set[str] | None]:
    """Names bound to keyword dicts in ``scope``, with every key they
    can hold (``None`` when some binding or update is not a literal;
    ``FORWARDED`` among them when it takes in ``kwarg``)."""
    found: dict[str, set[str] | None] = {}

    def add(name: str, keys: set[str] | None) -> None:
        if name in found and (found[name] is None or keys is None):
            found[name] = None
        else:
            found[name] = (found.get(name) or set()) | (keys or set())
            if keys is None:
                found[name] = None

    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    add(target.id, _literal_keys(node.value))
                elif (isinstance(target, ast.Subscript)
                      and isinstance(target.value, ast.Name)):
                    index = target.slice
                    add(target.value.id, {index.value}
                        if isinstance(index, ast.Constant) else None)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("update", "setdefault")
              and isinstance(node.func.value, ast.Name)):
            name = node.func.value.id
            if node.func.attr == "update":
                keys = {kw.arg for kw in node.keywords if kw.arg}
                if node.args and getattr(node.args[0], "id", None) == kwarg:
                    keys.add(FORWARDED)
                elif node.args:
                    arg_keys = _literal_keys(node.args[0])
                    keys = None if arg_keys is None else keys | arg_keys
                add(name, keys)
            elif node.args and isinstance(node.args[0], ast.Constant):
                add(name, {node.args[0].value})
    return found


def _nested_defs(func: ast.AST):
    """Functions and classes defined in ``func``'s body, at any block
    depth but not inside another definition."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        else:
            todo.extend(ast.iter_child_nodes(node))


def _no_init(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def attribute_assignments() -> set[str]:
    """Attribute names any scanned code assigns (``x.name = …``,
    ``self.name += …``): a record field among them is state."""
    names: set[str] = set()
    for root in SOURCE_ROOTS.values():
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for t in targets:
                    for sub in ast.walk(t):
                        if isinstance(sub, ast.Attribute):
                            names.add(sub.attr)
    return names


# -- CLI flags ---------------------------------------------------------
def cli_flags() -> list[tuple[str, str]]:
    """``(subcommand, --flag)`` for every flag ``repro.cli`` defines."""
    tree = ast.parse((ROOT / "src/repro/cli.py").read_text())
    flags: list[tuple[str, str]] = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        command = None
        shared = func.name == "_add_obs_flags"
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            attr = getattr(node.func, "attr", "")
            if attr == "add_parser" and node.args:
                command = node.args[0].value
            elif attr == "add_argument" and node.args:
                flag = node.args[0].value
                if flag.startswith("--"):
                    flags.append(("*obs*" if shared else command, flag))
    return flags


def _command_lines(text: str) -> list[str]:
    joined = re.sub(r"\\\n\s*", " ", text)
    return [line for line in joined.splitlines() if "repro " in line]


def runs() -> set[tuple[str, str]]:
    """``(subcommand, --flag)`` pairs some test, CI step or doc runs."""
    commands = {c for c, _ in cli_flags()}
    seen: set[tuple[str, str]] = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
                words = [e.value for e in node.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                if words and words[0] in commands:
                    seen.update((words[0], w.split("=")[0]) for w in words
                                if w.startswith("--"))
    for doc in DOCS:
        for line in _command_lines((ROOT / doc).read_text()):
            match = re.search(r"repro (\S+)", line)
            if match:
                seen.update((match.group(1), f) for f in
                            re.findall(r"(--[a-z][a-z0-9-]*)", line))
    return seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="list every setting no call in any tree sets")
    args = parser.parse_args(argv)
    census = Census()
    assigned = attribute_assignments()
    total = by_src_bench = by_nobody = 0
    unset = []
    for owner, name, module, line, target in sorted(census.settings(),
                                                     key=lambda s: (s[2], s[3])):
        total += 1
        setters = census.setters(owner, name)
        if not setters & {"src", "bench"}:
            by_src_bench += 1
        if not setters:
            by_nobody += 1
            tag = []
            if isinstance(target, Func) and owner in census.escaped:
                tag.append("callback")
            if isinstance(target, Klass) and (name in assigned
                                              or name.startswith("_")):
                tag.append("state")
            unset.append((module, line, owner, name, tag))
    print(f"defaulted parameters and fields under src/: {total}")
    print(f"set by no call in src/ or bench/: {by_src_bench}")
    print(f"set by no call at all: {by_nobody}")
    flags = cli_flags()
    ran = runs()
    obs = [f for c, f in flags if c == "*obs*"]
    unrun = [(c, f) for c, f in flags if c != "*obs*" and (c, f) not in ran
             and not (f in obs)]
    print(f"CLI flags: {len(flags)} ({len(obs)} shared obs flags), "
          f"run by no test, CI step or doc: {len(unrun)}")
    for command, flag in unrun:
        print(f"  unrun flag: {command} {flag}")
    if args.list:
        for module, line, owner, name, tag in unset:
            suffix = f"  [{', '.join(tag)}]" if tag else ""
            print(f"  {owner.removeprefix('repro.')}({name}=)  {module}:{line}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
