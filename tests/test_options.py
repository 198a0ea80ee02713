"""Every defaulted parameter of a library function has a caller that sets it.

A default that no call overrides is a constant spelled as an option: no
caller needs another value, and the signature hides the one the code always
uses. The scan walks the module-level functions of ``src/tauberlab`` and the
calls in ``src``, ``tests``, ``demos`` and ``perfbench``. A call sets a
parameter by keyword, by position or through ``*``/``**``. Calls are matched
by the called name alone (``f(...)`` or ``mod.f(...)``), so a same-named
function elsewhere can only hide a finding. A library function that passes
on one of its own unset defaults by name does not set it either. Methods are
skipped.
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


def unset_defaults():
    params = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func in _library_functions(_parse(path)):
            for name, position in _defaulted_params(func):
                params[(func.name, name)] = (f"{path.stem}.{func.name}({name})",
                                             position)
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
