"""Every defaulted parameter of a library function has a caller that sets it
and a caller that leaves it at its default.

A default that no call overrides is a constant spelled as an option: no
caller needs another value, and the signature hides the one the code always
uses. A default that every call overrides is a second statement of a value
some caller owns, and no call reads it. The scan walks the module-level
functions of ``src/tauberlab`` and the calls in ``src``, ``tests``,
``demos`` and ``perfbench``. A call sets a parameter by keyword, by
position or through ``*``/``**``. Calls are matched by the called name
alone (``f(...)`` or ``mod.f(...)``), so a same-named function elsewhere
can only hide a finding. A library function that passes on one of its own
unset defaults by name does not set it either. Methods are skipped.

A module constant (an ALL-CAPS name bound at module level) that no code in
``src`` reads is a knob that turns nothing, so every one needs a reader
there; tests alone do not count.

A public function or class that only tests read is test support spelled
as library: TEST_ONLY_NAMES lists the ones there are, and the list may
only shrink.

An environment variable the package reads is an option with no flag, no
config key and no ``--help`` line, so ``src`` reads none; and one it writes
is a setting it changes behind the caller's back, for itself and for every
library loaded after, so ``src`` writes none either.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tauberlab"
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _library_functions(tree):
    return [f for f in tree.body
            if isinstance(f, ast.FunctionDef)]


def _defaulted_params(func):
    """(name, position) of each defaulted parameter; position is None for a
    keyword-only parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(func.args.kwonlyargs,
                                             func.args.kw_defaults)
              if d is not None]
    return found


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls():
    """Each call as (called name, call node, caller), where the caller is
    the enclosing library function's name or None."""
    found = []
    library = {path.resolve() for path in PACKAGE.glob("*.py")}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _parse(path)
            owners = {}
            if path.resolve() in library:
                for func in _library_functions(tree):
                    for node in ast.walk(func):
                        owners[node] = func.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _call_name(node):
                    found.append((_call_name(node), node, owners.get(node)))
    return found


def _value(call, name, position):
    """The expression a call passes for a parameter, True when it may pass
    one through ``*``/``**``, or None when it passes none."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if position is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return True
            if i == position:
                return arg
    if any(kw.arg is None for kw in call.keywords):
        return True
    return None


def _library_params():
    """(label, position) of each defaulted parameter of a library function,
    keyed by (function name, parameter name)."""
    return {(func.name, name): (f"{path.stem}.{func.name}({name})", position)
            for path in sorted(PACKAGE.glob("*.py"))
            for func in _library_functions(_parse(path))
            for name, position in _defaulted_params(func)}


def unset_defaults():
    params = _library_params()
    passed = [(key, value, caller)
              for callee, call, caller in _calls()
              for key in params if key[0] == callee
              for value in [_value(call, key[1], params[key][1])]
              if value is not None]
    # grow the set ones to a fixed point: a value counts unless it is the
    # caller's own parameter of that name that nothing sets yet
    is_set = set()
    while True:
        grown = {key for key, value, caller in passed
                 if not (caller and isinstance(value, ast.Name)
                         and (caller, value.id) in params
                         and (caller, value.id) not in is_set)}
        if grown == is_set:
            break
        is_set = grown
    return [label for key, (label, _) in params.items() if key not in is_set]


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_defaults()
    assert not unset, ("defaulted parameters that no call sets; make each a "
                       "constant: " + ", ".join(unset))


def always_set_defaults():
    """Label of each defaulted parameter that every call sets: one that may
    pass it through ``*``/``**`` counts as leaving it at its default."""
    params = _library_params()
    left = {key for callee, call, _ in _calls() for key in params
            if key[0] == callee
            and not isinstance(_value(call, key[1], params[key][1]), ast.AST)}
    return [label for key, (label, _) in params.items() if key not in left]


def test_every_defaulted_parameter_is_left_at_its_default_by_some_call():
    always = always_set_defaults()
    assert not always, ("defaulted parameters that every call sets; make each "
                        "required: " + ", ".join(always))


def defaulted_params():
    """Label of each defaulted parameter of a library function."""
    return [f"{path.stem}.{func.name}({name})"
            for path in sorted(PACKAGE.glob("*.py"))
            for func in _library_functions(_parse(path))
            for name, _ in _defaulted_params(func)]


def module_constants():
    """Module-level ALL-CAPS names of the package, each with its label."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.strip("_").isupper():
                    defined[target.id] = f"{path.stem}.{target.id}"
    return defined


def unread_constants():
    """Module-level ALL-CAPS names of the package that no code in ``src``
    loads, by bare name or as a module attribute."""
    defined = module_constants()
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(label for name, label in defined.items() if name not in read)


def test_every_module_constant_is_read_in_src():
    unread = unread_constants()
    assert not unread, ("module constants that no code in src reads; delete "
                        "each or give it a reader: " + ", ".join(unread))



# public functions and classes that only tests read; the list may only
# shrink (give a name a reader and delete it here, or delete the name)
TEST_ONLY_NAMES = {
    "atoms": {"atoms_outside_region", "taylor_remainder_check", "stirling_bounds_check"},
    "contour": {"step_lp_norm", "poisson_convolve", "laplace_quadrature"},
    "counterexamples": {"f_sum_eval", "g_sum_eval"},
    "semigroup": {"per_mode_resolvent_oracle", "weighted_decay_suite", "c0_example_suite"},
}
READER_DIRS = ("src", "demos", "perfbench")


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_only_tests_read():
    """Per module, the public module-level functions and classes of the
    package that no code in ``src`` (outside their own body), ``demos`` or
    ``perfbench`` loads, by bare name or as an attribute."""
    defined = {node.name: path.stem for path in sorted(PACKAGE.glob("*.py"))
               for node in _public_defs(_parse(path))}
    read = set()
    for folder in READER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _parse(path)
            # a def's own body (a recursive call, say) is not a reader
            own = {inner: node.name for node in _public_defs(tree)
                   if path.parent == PACKAGE for inner in ast.walk(node)}
            for node in ast.walk(tree):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name in defined and isinstance(node.ctx, ast.Load) \
                        and own.get(node) != name:
                    read.add(name)
    found = {}
    for name, module in defined.items():
        if name not in read:
            found.setdefault(module, set()).add(name)
    return found


def test_test_only_names_only_shrink():
    assert names_only_tests_read() == TEST_ONLY_NAMES, (
        "a new public name that only tests read, or a listed name that gained "
        "a reader in src, demos or perfbench (then delete it from the list)")


# the os functions that read or write the environment
_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses():
    """(file, line) of each read or write of the environment in
    ``src/tauberlab``: any use of ``os.environ`` (a subscript, ``get``,
    an assignment, ``update``, ``setdefault``, ``pop``, a deletion), any
    ``os.getenv``/``putenv``/``unsetenv``, and any ``from os import`` of
    those names."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in _ENVIRONMENT_NAMES) \
                    or (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and {a.name for a in node.names} & _ENVIRONMENT_NAMES):
                found.append((path.name, node.lineno))
    return found


def test_src_reads_no_environment_variable():
    assert environment_uses() == []
