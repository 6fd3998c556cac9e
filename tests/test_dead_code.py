"""No public function or method of the package is reached only by tests.

The package is parsed with `ast`. A public module-level function, or a
public method of a public class, must be referenced somewhere in the
package outside its own body; one that is not is code only the tests
reach, and is deleted rather than kept alive by them. A name counts as
referenced wherever it appears as a bare name or as an attribute, so the
check can miss dead code that shares a name with something used, but it
never flags code the package calls.
"""

import ast
import os

import htlab

SRC = os.path.dirname(htlab.__file__)

# public names the package does not call, kept on purpose
KEEP = {
    "numkit.Rng.u64": "pins the stream contract: the test vectors are u64 draws",
    "numkit.kl_div": "an acceptance oracle for the distillation loss",
    "numkit.covariance": "the tested public form of rank_reg's covariance",
}


def _referenced(node) -> list:
    """Every bare name and attribute name used under `node`."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _public_defs(module: str, tree) -> list:
    """(qualified name, def node) of each public function of the module and
    each public method of its public classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")]
    return out


def unreferenced(src: str = SRC) -> list:
    """Qualified names of the public functions and methods under `src` that
    nothing there references outside their own bodies."""
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                trees[name[:-3]] = ast.parse(f.read(), filename=name)
    uses: dict = {}
    for tree in trees.values():
        for name in _referenced(tree):
            uses[name] = uses.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(module, tree):
            own = _referenced(node).count(node.name)
            if uses.get(node.name, 0) - own == 0:
                dead.append(qualname)
    return dead


def test_every_public_function_is_reached_from_the_package():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert dead == [], f"referenced only by tests, if at all: {', '.join(dead)}"


def test_keep_set_names_existing_unreferenced_code():
    # an entry whose code is now called, or gone, is dropped from KEEP
    assert set(KEEP) <= set(unreferenced())
