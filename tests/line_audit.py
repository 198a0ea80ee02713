"""Never-run lines of ``src/tauberlab`` under a pytest run, without coverage.

Run by hand from the repository root; any arguments go to pytest::

    PYTHONPATH=src python tests/line_audit.py [-q] [pytest args ...]

The audit traces the package's lines with ``sys.settrace`` while pytest runs
in this process.  A ``sitecustomize`` placed first on ``PYTHONPATH`` starts
the same tracer in every Python subprocess the tests launch (the CLI and demo
runs), and each one writes its lines out at exit.  A line counts as
executable when an instruction of some code object of the module sits on it;
the audit prints, per module, the executable lines that no run reached, and
on its last line their total, the total line count of the package's ``.py``
files and its settable values: the CLI parameters of ``cli.ACTIONS``, the
flags every action takes beside them (``--out-dir``), the ``[scenario]``
config keys, the defaulted parameters of library functions and the module
constants, the last two counted by ``test_options``' helpers.  Tracing
makes the run about twice as slow.  pytest does not collect this file: its
name does not start with ``test_``.
"""
import json
import os
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tauberlab"

# written next to a sitecustomize that imports it; the in-process run
# imports it directly
TRACER = '''
import atexit, json, os, sys, threading

_OUT = os.environ["LINE_AUDIT_OUT"]
_PACKAGE = os.environ["LINE_AUDIT_PACKAGE"]
_hits = set()
_ours = {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.realpath(name).startswith(_PACKAGE)
    if not _ours[name]:
        return None
    _hits.add((name, frame.f_lineno))
    return _local


def dump():
    sys.settrace(None)
    atexit.unregister(dump)
    hits = {}
    for name, line in _hits:
        hits.setdefault(os.path.realpath(name), []).append(line)
    with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as fh:
        json.dump(hits, fh)


threading.settrace(_call)
sys.settrace(_call)
atexit.register(dump)
'''


def executable_lines(path: pathlib.Path) -> set[int]:
    def walk(code):
        found = {line for _, _, line in code.co_lines() if line}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                found |= walk(const)
        return found
    return walk(compile(path.read_text(), str(path), "exec"))


def _ranges(lines):
    out, start = [], None
    for prev, line in zip([None, *lines], [*lines, None]):
        if start is None:
            start = line
        elif line != prev + 1:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(out)


def settable_counts() -> str:
    import dataclasses
    import test_options
    from tauberlab import cli

    params = sum(len(declared.params) for declared in cli.ACTIONS.values())
    # a common flag is a key a bare parse of an action sets besides the
    # command, the action and its parameters; each [scenario] config key
    # sets one Scenario field, and [params] sets the params one
    parser = cli._build_parser()
    flags = {key for command, action in cli.ACTIONS
             for key in vars(parser.parse_args([command, action]))
             if key not in ("command", "action") and not key.startswith("param_")}
    keys = [f.name for f in dataclasses.fields(cli.Scenario) if f.name != "params"]
    return (f"{params} CLI parameters, {len(flags)} common CLI flags, "
            f"{len(keys)} [scenario] config keys, "
            f"{len(test_options.defaulted_params())} defaulted library "
            f"parameters, {len(test_options.module_constants())} module constants")


def main(argv) -> int:
    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        site, out = pathlib.Path(tmp, "site"), pathlib.Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "_line_audit_tracer.py").write_text(TRACER)
        (site / "sitecustomize.py").write_text("import _line_audit_tracer\n")
        os.environ["LINE_AUDIT_OUT"] = str(out)
        os.environ["LINE_AUDIT_PACKAGE"] = str(PACKAGE.resolve())
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(site), os.environ.get("PYTHONPATH")) if p)
        sys.path.insert(0, str(site))
        import _line_audit_tracer
        code = pytest.main(["-p", "no:cacheprovider", *argv])
        _line_audit_tracer.dump()
        hits: dict[str, set[int]] = {}
        for part in out.glob("*.json"):
            for name, lines in json.loads(part.read_text()).items():
                hits.setdefault(name, set()).update(lines)

    total = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines += len(path.read_text().splitlines())
        missed = sorted(executable_lines(path) - hits.get(str(path.resolve()), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)} never run"
              + (f" ({_ranges(missed)})" if missed else ""))
    print(f"total never-run lines: {total} of {lines} src lines; "
          f"{settable_counts()} (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
