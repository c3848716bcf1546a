"""Package layering: the modules of ``avqds`` import each other without a
cycle, ``models`` (the problem definition) depends only on the Pauli
algebra and the statevector, never on the integrator built on top of it,
nor does ``ansatz`` (the compiled passes), and the statevector kernels and
oracle depend only on the Pauli algebra.

Imports are read from the source with ``ast``, function-level imports
included, so a deferred import cannot hide a dependency.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avqds"


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, anywhere in its body."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import x
                    deps.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("avqds."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(a.name.split(".")[1] for a in node.names if a.name.startswith("avqds."))
        graph[name] = (deps & modules) - {name}
    return graph


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, "import cycle: " + " -> ".join(path + (name,))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_models_imports_only_pauli_and_statevector():
    assert import_graph()["models"] == {"pauli", "statevector"}


def test_ansatz_imports_only_pauli_and_statevector():
    """The compiled passes run on ``statevector._run`` and build H·psi by
    ``statevector._hamiltonian_calls``; they never reach up into the
    assembly or the run loop built on them."""
    assert import_graph()["ansatz"] == {"pauli", "statevector"}


def test_statevector_imports_only_pauli():
    assert import_graph()["statevector"] == {"pauli"}
