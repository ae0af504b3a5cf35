"""Every function and method in src/auslab is entered by some command, or is
on the allowlist below with the reason it stays.

Run as a script, this module makes one small invocation of every command
and suite under `sys.setprofile` and prints, as JSON, the exit codes and the
(file, first line) of every auslab function entered.  The test runs it in a
fresh interpreter, so no cache another test filled hides a call, and checks
it against the functions `ast` finds in the source."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
PACKAGE = os.path.join(SRC, "auslab")

TRACED = "traced by perfbench"
NAIVE = "naive-engine arithmetic"
DEBUG = "debug dunder"

# Functions no command enters, and why each stays.
ALLOWLIST = {
    "linalg.IntEchelon.__init__": TRACED,
    "linalg.IntEchelon.rank": TRACED,
    "linalg.IntEchelon.residue": TRACED,
    "linalg.IntEchelon.insert": TRACED,
    "symmetry.enumerate_subgroups": TRACED,
    "symmetry.FiniteGroup.element_key_set": TRACED,
    "symmetry.FiniteGroup.vertex_maps": TRACED,
    "smash.IdealTruncation.built_through": TRACED,
    "smash.SmashElement.zero": NAIVE,
    "smash.SmashElement.unit": NAIVE,
    "preproj.AlgebraElement.one": NAIVE,      # SmashElement.unit's
    "smash.SmashElement.__add__": NAIVE,
    "smash.SmashElement.__neg__": NAIVE,
    "smash.SmashElement.__sub__": NAIVE,
    "smash.SmashElement.scale": NAIVE,
    "smash.SmashElement.__eq__": NAIVE,
    "scalars.ScalarValue.__add__": NAIVE,
    "scalars.ScalarValue.__rsub__": NAIVE,
    "scalars.ScalarValue.__eq__": NAIVE,
    "scalars.ScalarValue.__hash__": NAIVE,
    "scalars.ScalarValue.coeffs": DEBUG,       # the view __str__ prints
    "scalars.ScalarValue.__str__": DEBUG,
    "scalars.ScalarValue.__repr__": DEBUG,
    "scalars.CyclotomicContext.__repr__": DEBUG,
    "quiver.ArrowRef.__str__": DEBUG,
    "quiver.Word.__str__": DEBUG,
    "quiver.QuiverA.__repr__": DEBUG,
    "preproj.NFMonomial.__str__": DEBUG,
    "preproj.AlgebraElement.__str__": DEBUG,
    "symmetry.Automorphism.__str__": DEBUG,
    "smash.SmashElement.__str__": DEBUG,
}

GROUP_D4 = "rot(1),refl(0)"
GROUP_W4 = "rot(2),refl(0)"


def invocations(out_dir: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of one small run of every command and
    suite, refusals and a spec error included."""
    return [
        (["hilbert", "--n", "3", "--degree", "4", "--matrix"], 0),
        (["invariants", "--n", "4", "--group", GROUP_D4, "--degree", "4", "--check-presentation", "--check-free-module"], 0),
        (["invariants", "--n", "4", "--group", GROUP_W4, "--degree", "4", "--check-presentation", "--check-free-module"], 0),
        (["invariants", "--n", "3", "--group", "scalar(5;1,1,1;4,4,4)", "--degree", "4"], 0),
        (["invariants", "--n", "3", "--group", "rot(1)", "--degree", "2", "--check-free-module"], 1),
        (["auslander", "--n", "4", "--group", GROUP_D4, "--degree", "6"], 0),
        (["auslander", "--n", "3", "--group", "scalar(3;1,1,1;2,2,2)"], 0),
        # images in the quotient share roots, so image_rank falls back to `rank`
        (["auslander", "--n", "3", "--group", "rot(1),refl(0),scalar(3;1,1,1;2,2,2)", "--degree", "8"], 0),
        (["scan", "--n-list", "3", "--all-dihedral-subgroups", "--degree", "4", "--out", out_dir], 0),
        (["scan", "--n-list", "3"], 1),
        (["verify", "--suite", "structure", "--n", "3", "--degree", "4"], 0),
        (["verify", "--suite", "orbits", "--n", "4", "--degree", "4"], 0),
        (["verify", "--suite", "relations", "--n", "4", "--degree", "4"], 0),
        (["verify", "--suite", "smash", "--n", "3", "--degree", "2"], 0),
        (["auslander", "--n", "3", "--group", "rot(1", "--degree", "4"], 1),
    ]


def run_invocations(out_dir: str) -> dict:
    import auslab.cli

    package = os.path.dirname(auslab.cli.__file__)
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == package:
            entered.add((os.path.basename(code.co_filename), code.co_firstlineno))

    codes = []
    for argv, _ in invocations(out_dir):
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(auslab.cli.main(argv))
        finally:
            sys.setprofile(None)
    return {"codes": codes, "entered": sorted(entered)}


def defined_functions() -> dict[str, tuple[str, int]]:
    """module.Class.function -> (file, first line, decorators included) of
    every function and method in the package, nested ones too."""
    out = {}

    def collect(node, prefix: str, file: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                out[name] = (file, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                collect(child, name, file)
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}.{child.name}", file)
            else:
                collect(child, prefix, file)

    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file)) as fh:
                collect(ast.parse(fh.read()), file[:-3], file)
    return out


def test_every_function_in_src_is_entered_by_a_command(tmp_path):
    started = time.monotonic()
    run = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(tmp_path)],
        capture_output=True,
        text=True,
        # without a default degree, `auslander` picks its own cutoff
        env={**{k: v for k, v in os.environ.items() if k != "AUSLAB_DEFAULT_DEGREE"}, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["codes"] == [code for _, code in invocations(str(tmp_path))]
    assert (tmp_path / "scan.csv").exists()
    entered = {tuple(x) for x in report["entered"]}
    never = {name for name, where in defined_functions().items() if where not in entered}
    assert sorted(never - set(ALLOWLIST)) == [], "functions no command enters"
    assert sorted(set(ALLOWLIST) - never) == [], "stale allowlist entries"
    assert time.monotonic() - started < 5


if __name__ == "__main__":
    print(json.dumps(run_invocations(sys.argv[1])))
