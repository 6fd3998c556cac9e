"""No function, method or module-level constant of the package is reached
only by tests, and no module of the package or its tests imports a name it
never reads.

The package is parsed with `ast`. A module-level function, or a method of
a class, private ones included, must be referenced somewhere in the
package outside its own body; one that is not is code only the tests
reach, or nothing does, and is deleted rather than kept alive by them.
Dunder methods are skipped, since Python calls them. A name counts as
referenced wherever it appears as a bare name or as an attribute, so the
check can miss dead code that shares a name with something used, but it
never flags code the package calls. Likewise a name a module-level
assignment binds, dunders aside, must be read somewhere in the package:
loaded as a bare name, or used as an attribute.

A name an import binds must be read somewhere in its module, as a bare
name; `from __future__` imports bind nothing and are skipped.

The package has one trainer loop: `sgd_step` and a `forward` in any mode
but "eval" are each called from one function only, optim._train_steps.
Its callers drive the epochs: `train_sgd`, one epoch, is called only from
transfer.pretrain_source and transfer.run_protocol, and `lolsgd_round`,
one round, only from transfer.run_protocol.
Likewise it applies the task rule once: `seed_groups`, which splits a
protocol's seeds into the stacks run_protocol trains, is called from
cli.cmd_run alone. It describes each run input once: the test set's
`EvalSet` is built in cli.cmd_run alone, and `[scenario]` is resolved
(_resolve_scenario) in cli.load_config and, for `htlab gen`'s flags, in
cli.cmd_gen alone. It is source-data-free past the pretrains: the source
split, as an attribute, is read by transfer.pretrain_source, cli._source_key
and cli.cmd_gen's summary line alone, and named as a string only in data,
whose build, save and load code takes the splits by name. And it has one
file writer: the only `open` call with a mode that writes (`w`, `a`, `x`
or `+`, or a mode that is not a literal) is data.write_file's, which
writes beside the name and renames. It has one
results codec: the 17-significant-digit format of the CSVs' float cells is
spelled once, in cli._cell_rows, which both files' rows go through.
"""

import ast
import os

import htlab

SRC = os.path.dirname(htlab.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))

# names the package does not call, kept on purpose
KEEP = {
    "numkit._PhiloxKey.generate_state": "numpy's Philox calls it to seed itself",
}


def _referenced(node) -> list:
    """Every bare name and attribute name used under `node`."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not _is_dunder(node.name)


def _defs(module: str, tree) -> list:
    """(qualified name, def node) of each function of the module and each
    method of its classes, dunder methods aside."""
    out = []
    for node in tree.body:
        if _is_def(node):
            out.append((f"{module}.{node.name}", node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                    if _is_def(item)]
    return out


def _constants(tree) -> list:
    """Each name a module-level assignment of `tree` binds, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and not _is_dunder(n.id)]
    return names


def _trees(src: str) -> dict:
    """The parsed module of each .py file under `src`, by module name."""
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                trees[name[:-3]] = ast.parse(f.read(), filename=name)
    return trees


def unreferenced(src: str = SRC) -> list:
    """Qualified names of the functions and methods under `src` that
    nothing there references outside their own bodies, and of the
    module-level constants nothing there reads."""
    trees = _trees(src)
    uses: dict = {}
    for tree in trees.values():
        for name in _referenced(tree):
            uses[name] = uses.get(name, 0) + 1
    reads = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees.values()
             for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    dead = []
    for module, tree in trees.items():
        for qualname, node in _defs(module, tree):
            own = _referenced(node).count(node.name)
            if uses.get(node.name, 0) - own == 0:
                dead.append(qualname)
        dead += [f"{module}.{name}" for name in _constants(tree) if name not in reads]
    return dead


def test_every_function_is_reached_from_the_package():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert dead == [], f"referenced only by tests, if at all: {', '.join(dead)}"


def test_keep_set_names_existing_unreferenced_code():
    # an entry whose code is now called, or gone, is dropped from KEEP
    assert set(KEEP) <= set(unreferenced())


def _calls(node) -> list:
    """(name, call node) of each call under `node` to a bare name or an
    attribute."""
    return [(getattr(call.func, "id", getattr(call.func, "attr", None)), call)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def _training_calls(node) -> list:
    """The name of each call under `node` that takes a training step: each
    sgd_step call, and each forward call given a mode other than "eval"."""
    out = []
    for name, call in _calls(node):
        mode = [k.value for k in call.keywords if k.arg == "mode"] + call.args[2:3]
        if name == "sgd_step" or name == "forward" and mode and not (
                isinstance(mode[0], ast.Constant) and mode[0].value == "eval"):
            out.append(name)
    return out


def _named_calls(name: str):
    """The `calls` of callers that lists `name` once per call to it."""
    return lambda node: [called for called, _ in _calls(node) if called == name]


def callers(calls, src: str = SRC) -> dict:
    """For each name `calls(node)` lists, the qualified name of each
    function or method under `src` whose node lists it, once per listing;
    a call outside every function counts under its module's name."""
    out: dict = {}
    for module, tree in _trees(src).items():
        rest = calls(tree)
        for qualname, node in _defs(module, tree):
            for name in calls(node):
                out.setdefault(name, []).append(qualname)
                rest.remove(name)
        for name in rest:
            out.setdefault(name, []).append(module)
    return out


def test_one_function_runs_the_training_step():
    # a second trainer loop would call these from a second function
    assert callers(_training_calls) == {"sgd_step": ["optim._train_steps"],
                                        "forward": ["optim._train_steps"]}


def test_the_protocol_loop_and_the_pretrain_drive_the_epochs():
    # a trainer that looped over epochs itself would need a way back into
    # its caller for each epoch's check; a third caller would be a third loop
    assert callers(_named_calls("train_sgd")) == {
        "train_sgd": ["transfer.pretrain_source", "transfer.run_protocol"]}
    assert callers(_named_calls("lolsgd_round")) == {"lolsgd_round": ["transfer.run_protocol"]}


def test_one_function_applies_the_task_rule():
    # run_protocol trains the seeds it is given as one stack; a second
    # caller of seed_groups would group them a second time
    assert callers(_named_calls("seed_groups")) == {"seed_groups": ["cli.cmd_run"]}


def test_one_function_builds_the_test_set():
    # run_protocol and the rows evaluate on the EvalSet cmd_run built; a
    # second build would describe the test set a second time
    assert callers(_named_calls("EvalSet")) == {"EvalSet": ["cli.cmd_run"]}


def test_each_command_resolves_its_scenario_once():
    # build_scenario builds from the resolved dict; resolving it again
    # would read the [scenario] texts a second time
    assert callers(_named_calls("_resolve_scenario")) == {
        "_resolve_scenario": ["cli.load_config", "cli.cmd_gen"]}


def _attribute_reads(attr: str):
    """The `calls` of callers that lists `attr` once per attribute of that
    name read under a node."""
    return lambda node: [attr for n in ast.walk(node)
                         if isinstance(n, ast.Attribute) and n.attr == attr]


def test_only_the_pretrain_reads_the_source_split():
    # adaptation sees only the target data; a reader past the pretrains
    # would keep the source split alive through every cell
    assert callers(_attribute_reads("source_train")) == {
        "source_train": ["cli._source_key", "cli.cmd_gen", "transfer.pretrain_source"]}
    named = {module for module, tree in _trees(SRC).items() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "source_train"}
    assert named == {"data"}


def _write_opens(node) -> list:
    """The name open, once per call to it under `node` whose mode writes or
    is not a string literal."""
    out = []
    for call in (call for name, call in _calls(node) if name == "open"):
        # the mode given by keyword or second argument, or the default "r"
        mode = ([k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
                + [ast.Constant("r")])[0]
        if not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+")):
            out.append("open")
    return out


def test_one_function_opens_a_file_for_writing():
    # a second writer would write a file in place, where a cut write
    # leaves a cut file under its name
    assert callers(_write_opens) == {"open": ["data.write_file"]}


def test_one_function_formats_a_results_float():
    # a second spelling of the CSVs' float format would be a second writer
    # that can drift from the reader; an f-string's spec counts too
    spelled = [f"{module}:{node.lineno}" for module, tree in _trees(SRC).items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and ".17g" in str(node.value)]
    assert len(spelled) == 1, spelled


def unused_imports(paths) -> list:
    """Each name an import in one of the `paths` binds that its module
    never reads, as "file:line: name"."""
    out = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds `a`
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                out += [f"{os.path.basename(path)}:{node.lineno}: {name}" for name in bound
                        if name not in read]
    return out


def test_no_module_imports_a_name_it_never_reads():
    paths = [os.path.join(d, name) for d in (SRC, TESTS) for name in sorted(os.listdir(d))
             if name.endswith(".py")]
    assert unused_imports(paths) == []
