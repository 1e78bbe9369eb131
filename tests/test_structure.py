"""Structure of the package source: the model is written down once, with no
copy of it outside its home modules, the package has one public solve, which
runs the single-grid kernel for its two stages and serves every command, the
threshold layer solves only through its one sweep and finds roots with its
one root finder, the evolution has one time-stepping loop and d'' one
forward difference, which serves ``dmap`` alone, every error meets one exit
code in ``cli.main``, every import is used, every function, class and
method has a reader in the program or the benchmark, the program does not
load ``scipy.special``, ``scipy.optimize`` or ``scipy.sparse``, and the
eigensolver's dense matrices do not grow with the grid and are built once
per parity sector.  The tests' own Hypothesis properties are derandomized."""

import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solitonlab
from dense_oracle import full_sector_eigenvalues
from solitonlab import cli, errors, spectra
from solitonlab.explicit import explicit_params, phi_exact
from solitonlab.grid import SpectralGrid
from solitonlab.petviashvili import petviashvili_solve

HOMES = {"petviashvili.py", "grid.py"}


def _is_model_power(node):
    """xi**4 (the symbol) or a power ** alpha, ** (alpha + k) (|u|^p); squares pass."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    base, exponent = ast.unparse(node.left), ast.unparse(node.right)
    return (base, exponent) == ("xi", "4") or re.match(r"alpha\b", exponent) is not None


def test_model_lives_in_petviashvili_and_grid():
    package = Path(solitonlab.__file__).parent
    copies = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(package.glob("*.py")) if path.name not in HOMES
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_model_power(node)
    ]
    assert not copies, "model written outside its home:\n" + "\n".join(copies)


def _parseval_sums(source):
    """Lines of the products dx / n sum(w |c|**2): a division by n or n_points
    times a sum of a weighted |c|**2, the full-spectrum Parseval sum."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                   and re.search(r"/ [\w.]*\bn(_points)?\b.*\bsum\(.*\babs\(.*\) \*\* 2",
                                 ast.unparse(node))})


def test_parseval_sum_lives_in_grid():
    # energy, SpectralGrid.norm and a field's H2 norm read SpectralGrid.parseval
    package = Path(solitonlab.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _parseval_sums(path.read_text())]
    tree = ast.parse((package / "grid.py").read_text())
    (parseval,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "parseval"]
    assert found == [f"grid.py:{parseval.body[-1].lineno}"]


def test_parseval_guard_catches_the_written_out_sums():
    # the forms that energy, the H2 norm and the orbit reference had; the
    # solver's half-spectrum pairing, with dx in its weights, is not one
    for source in ("q = g.dx / g.n_points * float(np.sum(w * np.abs(u.spectrum) ** 2))",
                   "q = np.sqrt(self.dx / self.n_points * np.sum(w * np.abs(c) ** 2))",
                   "q = dx / n * np.sum((1.0 + xi**2 + xi**4) * np.abs(c) ** 2)"):
        assert _parseval_sums(source) == [1], source
    assert _parseval_sums("m = float(np.sum(weights * np.abs(coeffs) ** 2))") == []


def _references(tree, name):
    """Line numbers of every read of name, bare or as a module attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name]


def _functions(module):
    """The parsed module and its top-level functions by name."""
    tree = ast.parse((Path(solitonlab.__file__).parent / module).read_text())
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_stability_solves_only_in_nested_solve():
    # petviashvili_solve is the nested iteration: it reads the single-grid
    # kernel for its coarse stage and for the requested grid, and never calls
    # itself, so a traced solve is one span; no other module names the
    # kernel, and stability solves through its one sweep
    tree, functions = _functions("petviashvili.py")
    solve = functions["petviashvili_solve"]
    reads = _references(tree, "_iterate")
    assert len(reads) == 2 and reads == _references(solve, "_iterate")
    assert not _references(solve, "petviashvili_solve")
    package = Path(solitonlab.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py")) if path.name != "petviashvili.py"
              and re.search(r"\b_iterate\b", path.read_text())]
    assert naming == []
    tree, functions = _functions("stability.py")
    solves = _references(tree, "petviashvili_solve")
    assert len(solves) == 1 and solves == _references(functions["_sweep"], "petviashvili_solve")


def test_every_command_solves_through_the_nested_solve():
    # cli reads the one public solve in the three places that solve, keeps
    # no __all__, and spectrum and evolve solve through _converged_wave
    tree, functions = _functions("cli.py")
    assert not [node for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert not _references(tree, "_iterate")
    readers = sorted(name for name, node in functions.items()
                     if _references(node, "petviashvili_solve"))
    assert readers == ["_converged_wave", "cmd_solve", "cmd_verify_exact"]
    assert len(_references(tree, "petviashvili_solve")) == 3
    for name in ("cmd_spectrum", "cmd_evolve"):
        assert _references(functions[name], "_converged_wave"), name


def test_stability_has_one_root_finder():
    # Brent's method, called by the two threshold searches only
    tree, functions = _functions("stability.py")
    assert "_bisect" not in functions and not _references(tree, "_bisect")
    callers = sorted(name for name, node in functions.items() if _references(node, "_brent"))
    assert callers == ["find_alpha0", "find_omega_c"]
    assert len(_references(tree, "_brent")) == 2


def test_find_omega_c_brackets_by_its_range_alone():
    # the chi form at the ends of the range decides; no branch, no forward difference
    _, functions = _functions("stability.py")
    for name in ("continue_branch", "d_second"):
        assert not _references(functions["find_omega_c"], name), name


def test_evolution_runs_only_in_evolve():
    # one time-stepping loop; the CLI reaches it through the perturbed-wave driver
    package = Path(solitonlab.__file__).parent
    outside = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
               if path.name != "evolve.py"
               for line in _references(ast.parse(path.read_text()), "run")]
    assert not outside, f"run read outside evolve at {outside}"
    _, functions = _functions("cli.py")
    assert _references(functions["cmd_evolve"], "perturbed_run")


def _mass_differences(tree):
    """Lines of the np.diff calls on masses: a forward difference of d''."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.diff"
            and node.args and "mass" in ast.unparse(node.args[0])]


def test_forward_difference_has_one_caller():
    # d_second is the one forward-difference d'', which gives dmap its rows
    # whole; a pointwise value is a two-point branch
    package = Path(solitonlab.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _mass_differences(ast.parse(path.read_text()))]
    _, functions = _functions("stability.py")
    assert found == [f"stability.py:{line}" for line in _mass_differences(functions["d_second"])]
    assert len(found) == 1
    readers = [f"{path.name}:{node.name}" for path in sorted(package.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and _references(node, "d_second")]
    assert readers == ["cli.py:cmd_dmap"], f"d_second read by {readers}"


def _caught(handler):
    """The names of the classes an except clause catches: one or a tuple."""
    if handler.type is None:
        return []
    return [ast.unparse(node) for node in getattr(handler.type, "elts", [handler.type])]


def test_every_error_is_raised_and_meets_one_exit_code():
    # each exception of errors.py is raised in the program, is caught by no
    # command on its way to cli.main, and matches exactly one of main's
    # handlers, which alone decides its exit code
    package = Path(solitonlab.__file__).parent
    names = [node.name for node in ast.parse((package / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)]
    raised = {ast.unparse(getattr(node.exc, "func", node.exc))
              for path in package.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert [name for name in names if name not in raised] == []
    _, functions = _functions("cli.py")
    rerouted = [f"{function}: {name}" for function, node in functions.items() if function != "main"
                for handler in ast.walk(node) if isinstance(handler, ast.ExceptHandler)
                for name in _caught(handler) if name in names]
    assert rerouted == [], f"caught before main: {rerouted}"
    (outer,) = [node for node in functions["main"].body if isinstance(node, ast.Try)]
    handlers = [tuple(getattr(cli, name, None) or getattr(builtins, name)
                      for name in _caught(handler)) for handler in outer.handlers]
    for name in names:
        matches = [classes for classes in handlers if issubclass(getattr(errors, name), classes)]
        assert len(matches) == 1, f"{name} matches {len(matches)} of main's handlers"


def test_nested_iterations_read_one_resolved_band_helper():
    # the wave solve's coarse stage and the chi solve pick their grid with
    # grid.coarsest_grid, and prolong with grid.zero_pad; neither has a cut of its own
    spectra_tree, spectra_functions = _functions("spectra.py")
    petviashvili_tree, petviashvili_functions = _functions("petviashvili.py")
    for tree, function in ((petviashvili_tree, petviashvili_functions["_coarse_grid"]),
                           (spectra_tree, spectra_functions["negative_direction_scalar"])):
        assert _references(tree, "coarsest_grid") == _references(function, "coarsest_grid")
        assert len(_references(function, "coarsest_grid")) == 1
        assert not _references(function, "rfft") and not _references(tree, "COARSE_CUT")
    for tree, function in ((spectra_tree, spectra_functions["negative_direction_scalar"]),
                           (petviashvili_tree, petviashvili_functions["_initial_guess"])):
        assert _references(tree, "zero_pad") == _references(function, "zero_pad")
        assert len(_references(function, "zero_pad")) == 1
        assert not _references(function, "pad")


def _unused_imports(tree):
    """Names bound by an import and never read, nor listed in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts if isinstance(elt, ast.Constant)
    }
    return {name: line for name, line in imported.items()
            if name not in used | exported}


def test_no_unused_imports():
    package = Path(solitonlab.__file__).parent
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for name, line in _unused_imports(ast.parse(path.read_text())).items()
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_unused_import_guard_catches_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport sys as system\n"
                     "from a import b, c\n"
                     "__all__ = ['c']\nsystem.exit(os)\n")
    assert _unused_imports(tree) == {"b": 4}


def _definitions(tree):
    """(name, line) of the top-level functions and classes and of those
    classes' methods, dunders excluded."""
    nodes = [node for top in tree.body if isinstance(top, ast.ClassDef)
             for node in top.body if isinstance(node, ast.FunctionDef)]
    nodes += [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return [(node.name, node.lineno) for node in nodes if not node.name.startswith("__")]


def _external_names(tree):
    """Names that an import from outside solitonlab binds (np, math, scipy, ...)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.level == 0
            for alias in node.names
            if not (alias.name if isinstance(node, ast.Import) else node.module)
            .startswith("solitonlab")}


def _base(node):
    """The innermost value of an attribute chain: np for np.linalg.norm."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _local_loads(tree):
    """The bare-name loads inside each function of a name that the function
    binds, as an argument or by assignment: they read a local."""
    local = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.Lambda)):
            nodes = list(ast.walk(function))
            bound = {node.arg for node in nodes if isinstance(node, ast.arg)} | {
                node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            local |= {node for node in nodes if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load) and node.id in bound}
    return local


def _reads(tree):
    """Every name read in tree, bare or as an attribute; a function's local
    (a variable named residual) and an attribute of a name imported from
    outside solitonlab (np.linalg.norm) read no definition of ours."""
    external, local = _external_names(tree), _local_loads(tree)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node not in local}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and not (isinstance(base := _base(node), ast.Name) and base.id in external)})


# methods that a base class outside the package calls for us, with why
CALLED_FOR_US = {"error": "argparse calls _Parser.error on a bad flag"}


def test_every_definition_is_read_by_the_program_or_the_benchmark():
    # what only the tests call belongs with the tests, as an oracle
    package = Path(solitonlab.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set().union(CALLED_FOR_US, *map(_reads, trees.values()),
                       *(_reads(ast.parse(path.read_text())) for path in perfbench.glob("*.py")))
    unread = [f"{name}:{line}: {definition}" for name, tree in trees.items()
              for definition, line in _definitions(tree) if definition not in read]
    assert not unread, "defined but never read outside the tests:\n" + "\n".join(unread)


def test_unread_definition_guard_catches_an_unread_method():
    tree = ast.parse("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
                     "    def n(self): self.m()\n"
                     "def f(): pass\nf()\n")
    assert [name for name, _ in _definitions(tree) if name not in _reads(tree)] == ["n", "A"]


def test_unread_definition_guard_sees_through_outside_modules():
    # np.linalg.norm reads numpy's norm, not a norm of ours; grid.norm does
    source = ("import numpy as np\nfrom scipy import linalg\n"
              "class Grid:\n    def norm(self): pass\n"
              "np.linalg.norm(1)\nlinalg.norm(1)\ngrid = Grid()\n")
    tree = ast.parse(source)
    assert [name for name, _ in _definitions(tree) if name not in _reads(tree)] == ["norm"]
    assert "norm" in _reads(ast.parse(source + "grid.norm()\n"))


def test_unread_definition_guard_sees_through_locals():
    # a variable named after a function reads the variable, not the function
    source = ("def residual(): pass\n"
              "def solve(error):\n    residual = error\n    return residual\n"
              "solve(lambda residual: residual)\n")
    tree = ast.parse(source)
    assert [name for name, _ in _definitions(tree) if name not in _reads(tree)] == ["residual"]
    assert "residual" in _reads(ast.parse(source + "solve(residual)\n"))


def test_every_hypothesis_property_is_derandomized():
    # Tier-1 draws the same examples on every run
    loose = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "settings"
             and not any(kw.arg == "derandomize" and getattr(kw.value, "value", None) is True
                         for kw in node.keywords)]
    assert not loose, f"@settings without derandomize=True at {loose}"


def _loaded_by_cli(module):
    """Whether ``import solitonlab.cli`` in a fresh interpreter loads module."""
    code = f"import sys, solitonlab.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(solitonlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip() == "True"


def test_cli_does_not_import_scipy_special():
    # only the tests' Gamma-function oracle needs it
    assert not _loaded_by_cli("scipy.special")


def test_cli_does_not_import_scipy_optimize():
    # the threshold searches have their own root finder; importing it would add
    # about 0.2 s to every command's start (2-vCPU x86-64 VM)
    assert not _loaded_by_cli("scipy.optimize")


def test_cli_does_not_import_scipy_sparse():
    # the sectors' eigensolve is a dense eigh and their MINRES is the package's own
    assert not _loaded_by_cli("scipy.sparse")


def test_no_arpack_in_src():
    package = Path(solitonlab.__file__).parent
    assert not [path.name for path in package.glob("*.py") if "eigsh" in path.read_text()]


def test_eigen_report_keeps_the_same_modes_on_finer_grids(monkeypatch):
    # dense N x N matrices belong in the tests only: at alpha = 1 the sectors
    # are compressed to the same modes on N = 2048 and N = 8192
    kept = {}
    compressed = spectra._Sector.compressed

    def spy(self, p_hat, m_c):
        kept.setdefault(self.n, []).append((self.sign, m_c))
        return compressed(self, p_hat, m_c)

    monkeypatch.setattr(spectra._Sector, "compressed", spy)
    omega0 = explicit_params(1.0).omega0
    for n in (2048, 8192):
        profile = phi_exact(1.0, SpectralGrid(n_points=n, half_width=200.0))
        for which in ("Lminus", "Lplus"):
            spectra.eigen_report(spectra.build_operator(profile, 1.0, omega0, which))
    assert kept[2048] == kept[8192]
    assert max(m_c for _, m_c in kept[8192]) < 2048 // 4


def _compressions(monkeypatch):
    """(sign, m_c) of every _Sector.compressed call: one per sector eigh."""
    kept = []
    compressed = spectra._Sector.compressed

    def spy(self, p_hat, m_c):
        kept.append((self.sign, m_c))
        return compressed(self, p_hat, m_c)

    monkeypatch.setattr(spectra._Sector, "compressed", spy)
    return kept


def _compressions_per_operator(monkeypatch, profile, alpha, omega):
    kept, per_operator = _compressions(monkeypatch), []
    for which in ("Lminus", "Lplus"):
        kept.clear()
        spectra.eigen_report(spectra.build_operator(profile, alpha, omega, which))
        per_operator.append(list(kept))
    return per_operator


@pytest.mark.parametrize("n", [2048, 8192])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
def test_each_sector_is_compressed_once_at_omega0(monkeypatch, alpha, n):
    # the spectrum workload's solved waves and the gate's closed-form ones:
    # the start read off the coupling entries already meets the residual
    grid = SpectralGrid(n_points=n, half_width=200.0)
    omega0 = explicit_params(alpha).omega0
    solved, diag = petviashvili_solve(alpha, omega0, grid)
    assert diag.converged
    for profile in (phi_exact(alpha, grid), solved):
        for kept in _compressions_per_operator(monkeypatch, profile, alpha, omega0):
            assert [sign for sign, _ in kept] == [1, -1]


@pytest.mark.parametrize("alpha, omega", [(2.5, 0.2), (3.5, 0.3)])
def test_each_sector_is_compressed_once_in_the_spectrum_regime(monkeypatch, alpha, omega):
    # N = 4096, alpha in [1.5, 3.5], omega in [0.1, 0.3]; (3.5, 0.3) needs
    # the most modes
    profile, diag = petviashvili_solve(alpha, omega, SpectralGrid(n_points=4096, half_width=200.0))
    assert diag.converged
    for kept in _compressions_per_operator(monkeypatch, profile, alpha, omega):
        assert [sign for sign, _ in kept] == [1, -1]


def test_a_wave_that_changes_sign_starts_at_the_full_sector(monkeypatch):
    # at alpha 3, omega 3 the wave changes sign, so |phi|^3 is not smooth and
    # p_hat never decays below the start level: one eigh of the whole sector
    grid = SpectralGrid(n_points=1024, half_width=100.0)
    profile, diag = petviashvili_solve(3.0, 3.0, grid)
    assert diag.converged and profile.values.min() < 0
    kept = _compressions(monkeypatch)
    for which in ("Lminus", "Lplus"):
        kept.clear()
        op = spectra.build_operator(profile, 3.0, 3.0, which)
        rep = spectra.eigen_report(op)
        assert kept == [(1, 513), (-1, 511)]
        np.testing.assert_allclose(rep.eigenvalues,
                                   full_sector_eigenvalues(op, rep.eigenvalues.size),
                                   rtol=0, atol=1e-11)
