"""Import hygiene: every name a toolkit module imports is used in it, and
every toolkit name the benchmark reaches, the functions its tracer wraps
among them, still exists where it looks.

No linter ships with the toolkit, so this AST walk is the check that keeps
dead imports (and the dead code they point at) from coming back.
"""
import ast
import builtins
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nonlocality"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # the walk itself sees plain, dotted, from- and aliased imports
    assert _unused_imports("import os.path\nfrom a.b import c, d as e\nc()\n") == ["e", "os"]
    unused = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(path.read_text())
    }
    assert sorted(unused) == []


def _json_reads(source: str) -> list[tuple]:
    """(top-level definition, line, whether object_pairs_hook=unique_keys
    is passed) of each json.load and json.loads call."""
    reads = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if not (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                continue
            hooks = [k.value for k in node.keywords if k.arg == "object_pairs_hook"]
            hooked = bool(hooks) and isinstance(hooks[0], ast.Name) and hooks[0].id == "unique_keys"
            reads.append((getattr(top, "name", None), node.lineno, hooked))
    return reads


def test_every_json_read_refuses_repeated_keys():
    # the walk itself sees a missing hook, another hook and the right one,
    # and the definition each call is in
    sample = (
        "json.loads(t)\n"
        "def f():\n"
        "    json.load(f, object_pairs_hook=dict)\n"
        "    json.load(f, object_pairs_hook=unique_keys)\n"
    )
    assert _json_reads(sample) == [(None, 1, False), ("f", 3, False), ("f", 4, True)]
    # one reader: every JSON input goes through strings.read_json, whose one
    # json.loads refuses a repeated key
    reads = [
        (path.name, name, hooked)
        for path in sorted(SRC.glob("*.py"))
        for name, _, hooked in _json_reads(path.read_text())
    ]
    assert reads == [("strings.py", "read_json", True)]


def _console_writes(source: str) -> list[tuple]:
    """(top-level definition, line, what) of each reference to sys.stdout,
    each print call and each write_all call, in line order."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "stdout"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                what = "sys.stdout"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "print", "write_all"
            ):
                what = node.func.id
            else:
                continue
            found.append((getattr(top, "name", None), node.lineno, what))
    return sorted(found, key=lambda item: item[1])


def test_only_main_writes_stdout_and_only_after_every_file():
    # the walk itself sees print, a stdout reference in any form, and the
    # definition each is in
    sample = (
        "print(1)\n"
        "def f():\n"
        "    sys.stdout.write(t)\n"
        "    print(t, file=sys.stdout)\n"
        "    write_all(w)\n"
    )
    assert _console_writes(sample) == [
        (None, 1, "print"), ("f", 3, "sys.stdout"), ("f", 4, "print"), ("f", 4, "sys.stdout"),
        ("f", 5, "write_all"),
    ]
    # handlers compute and return their text; cli.main writes every file in
    # one write_all and then, once, the result on stdout
    writes = [
        (path.name, name, what)
        for path in sorted(SRC.glob("*.py"))
        for name, _, what in _console_writes(path.read_text())
    ]
    assert writes == [("cli.py", "main", "write_all"), ("cli.py", "main", "sys.stdout")]


def _handled(source: str, func: str) -> list[tuple[str, bool]]:
    """(name, last) of each exception that an except clause in func names,
    each try in turn, last telling whether the clause is its try's last; a
    bare except names "", a dotted name its full text."""
    top = ast.parse(source)
    fn = next(n for n in ast.walk(top) if isinstance(n, ast.FunctionDef) and n.name == func)
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Try):
            for i, handler in enumerate(node.handlers):
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                last = i == len(node.handlers) - 1
                found += [(ast.unparse(k) if k else "", last) for k in kinds]
    return found


def test_main_maps_exit_codes_by_the_toolkit_types():
    # the walk itself sees tuples, bare and nested clauses, and which is last
    sample = (
        "def main():\n"
        "    try:\n"
        "        try:\n            f()\n        except:\n            pass\n"
        "    except (ValueError, mod.E):\n        pass\n"
        "    except Exception:\n        pass\n"
    )
    assert _handled(sample, "main") == [
        ("ValueError", False), ("mod.E", False), ("Exception", True), ("", True)
    ]
    # each failure's class is chosen where it is raised, and main maps the
    # toolkit's types to exit codes: of the builtin exceptions it names only
    # argparse's SystemExit, OSError (2), MemoryError (3), KeyboardInterrupt
    # (130) and, as its last clause, Exception (3, "internal error"), so no
    # ValueError, KeyError or AssertionError of a fault is taken for an
    # input's or an oracle's
    named = _handled((SRC / "cli.py").read_text(), "main")
    builtin = [(name, last) for name, last in named if name in vars(builtins) or not name]
    assert builtin == [
        ("OSError", False), ("MemoryError", False), ("KeyboardInterrupt", False),
        ("Exception", True), ("SystemExit", True),
    ]


def _loaded_in_fresh_interpreter(code: str, banned: tuple) -> list:
    """The modules of `banned` that a fresh interpreter has loaded once it
    has run `code` with the toolkit importable."""
    code += f"\nimport sys; print([m for m in {banned!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout)


def test_cli_import_loads_no_process_pool():
    # no estimator runs a command, so nothing needs subprocess or shlex
    banned = ("concurrent.futures.process", "subprocess", "shlex")
    assert _loaded_in_fresh_interpreter("import nonlocality.cli", banned) == []


def test_cli_import_loads_no_signal():
    # only a parent whose search workers must be killed imports signal
    assert _loaded_in_fresh_interpreter("import nonlocality.cli", ("signal",)) == []


def test_cli_import_loads_no_record_machinery():
    # records are plain classes on strings.Record: no generated code, so no
    # dataclasses and, through it, no inspect; nor typing. An interpreter's own
    # start-up (a .pth file of site-packages) may load typing, so only what the
    # import adds counts
    code = (
        "import sys; before = set(sys.modules)\n"
        "import nonlocality.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_dataclass_or_namedtuple_in_src():
    # every record derives from strings.Record
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [ast.unparse(d) for d in node.decorator_list + node.bases]
                found += [f"{path.name}:{node.name}:{n}" for n in names if re.search(r"dataclass|NamedTuple", n)]
    assert found == []


def test_parallel_search_loads_no_process_pool():
    # game_value_exact(jobs > 1) forks its workers itself and talks to them
    # through pipes and marshal: no pool, no pickling, no logging
    banned = ("multiprocessing", "concurrent.futures", "subprocess", "socket", "logging", "pickle")
    code = (
        "from nonlocality.games import GameSpec\n"
        "from nonlocality.oracles import game_value_exact\n"
        "assert game_value_exact(GameSpec.pr(), reps=2, jobs=2).nodes == 79"
    )
    assert _loaded_in_fresh_interpreter(code, banned) == []


def test_perfbench_trace_targets_resolve():
    # perfbench --trace 1 wraps each TARGETS entry in place: a module
    # attribute, or a method in its class's own __dict__; an entry a
    # refactor moved or renamed would crash the traced run instead
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"nonlocality.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = isinstance(cls, type) and callable(cls.__dict__.get(meth))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _toolkit_refs(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line, names) for each attribute chain rooted at the benchmark's
    toolkit namespace: `nl`, `self.nl`, or a one-line alias of a chain on
    it (`O = nl.oracles`, `st, gm = nl.strings, nl.games`). Calls end a
    chain; an alias is known from its line on, by name, in the whole file."""
    tree = ast.parse(source)
    aliases: dict[str, tuple[str, ...]] = {}

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        names.reverse()
        if node.id == "nl":
            return tuple(names)
        if node.id == "self" and names[:1] == ["nl"]:
            return tuple(names[1:])
        if node.id in aliases:
            return aliases[node.id] + tuple(names)
        return None

    # an Attribute that is another's value is a prefix of a longer chain
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    refs = []
    for node in sorted(
        (n for n in ast.walk(tree) if isinstance(n, (ast.Assign, ast.Attribute))),
        key=lambda n: (n.lineno, n.col_offset),
    ):
        if isinstance(node, ast.Attribute):
            if id(node) in inner:
                continue
            names = chain(node)
            if names:
                refs.append((node.lineno, names))
            continue
        pairs = [(node.targets[0], node.value)]
        if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
            pairs = list(zip(node.targets[0].elts, node.value.elts))
        for target, value in pairs:
            names = chain(value)
            if isinstance(target, ast.Name) and names is not None:
                assert aliases.setdefault(target.id, names) == names, f"{target.id} rebound"
    return refs


def test_perfbench_toolkit_names_resolve():
    # the benchmark reaches the toolkit through `nl`, the namespace
    # perfbench/run.py's import_toolkit builds: its MODULES tuple and one
    # attribute per module. A name a refactor deleted or renamed would fail
    # only when its op runs, so every reference is resolved here instead.
    snippet = "O, G = nl.oracles, nl.games.GameSpec\nO.gone()\nG.pr().promise_pairs\nself.nl.cli.main\n"
    assert _toolkit_refs(snippet) == [
        (1, ("oracles",)),
        (1, ("games", "GameSpec")),
        (2, ("oracles", "gone")),
        (3, ("games", "GameSpec", "pr")),
        (4, ("cli", "main")),
    ]
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    modules = next(
        ast.literal_eval(n.value)
        for n in run.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "MODULES"
    )
    nl = types.SimpleNamespace(
        MODULES=modules, **{m: importlib.import_module(f"nonlocality.{m}") for m in modules}
    )
    absent, seen, missing = object(), set(), []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for line, names in _toolkit_refs(path.read_text()):
            seen.add(names)
            obj = nl
            for name in names:
                obj = getattr(obj, name, absent)
            if obj is absent:
                missing.append(f"{path.name}:{line}: nl.{'.'.join(names)}")
    assert missing == []
    # the walk reaches names through each kind of root
    assert {("strings", "interleave"), ("oracles", "pr_box_distribution"),
            ("games", "GameSpec", "pr"), ("cli", "main")} <= seen


def _reads(node) -> tuple[Counter, Counter]:
    """(names, attributes) that node reads, by count: a name read or an
    imported name counts in the first, an attribute read (`x.name`) in the
    second. Stores, such as a local of the same name, count in neither."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names, attrs


def _public_defs(tree) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of each public top-level function and
    class, and each public method of a top-level class."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            defs.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{m.name}", m.name, m)
                    for m in node.body
                    if isinstance(m, kinds[:2]) and not m.name.startswith("_")
                ]
    return defs


def _unnamed_defs(modules: dict, others: list[str], documented: set) -> list[str]:
    """The public definitions in modules (file name -> source) that no other
    part of them, none of the sources in others and no documented name
    reads: each name's reads over everything, less those inside its own
    definition. A method is read only as an attribute; a top-level function
    or class also by name or import."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attrs = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        n, a = _reads(tree)
        names += n
        attrs += a

    def reads(qual, short, node) -> int:
        n, a = _reads(node)
        if "." in qual:
            return attrs[short] - a[short]
        return names[short] - n[short] + attrs[short] - a[short]

    return sorted(
        f"{name}:{qual}"
        for name, tree in trees.items()
        for qual, short, node in _public_defs(tree)
        if reads(qual, short, node) == 0 and short not in documented
    )


def _library_overview_names() -> set:
    """The identifiers in backticks in the README's "Library overview"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return {w for span in re.findall(r"`([^`]+)`", section) for w in re.findall(r"\w+", span)}


def test_every_public_name_has_a_caller():
    # a public function, class or method that nothing in src/ or perfbench
    # reads, and that the README does not list, is dead surface
    snippet = {
        "m.py": "def used(): pass\ndef dead(): dead()\ndef doc(): pass\n"
        "class C:\n    def meth(self): pass\n    def _private(self): pass\nused()\n"
        # a local that shares a method's or a function's name reads neither
        "def stored():\n    meth = stored = 1\n    return meth\n",
        "n.py": "from m import stored\n",
    }
    assert _unnamed_defs(snippet, ["C().x"], {"doc"}) == ["m.py:C.meth", "m.py:dead"]
    del snippet["n.py"]
    assert _unnamed_defs(snippet, ["C().x"], {"doc"}) == [
        "m.py:C.meth", "m.py:dead", "m.py:stored"
    ]
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unnamed_defs(modules, bench, _library_overview_names()) == []
