"""Every public module-level name and class member of the package has a
caller, every command-line option a reader, and every error type an export
and a raise.

A name defined at module level in ``src/handspd/*.py`` without a leading
underscore, and a method or property without one of a public class there,
must be referenced somewhere in ``src/`` other than its own definition, or
by ``perfbench/``.  Code that only tests use belongs in ``tests/``.  A
reference is a loaded name, an attribute, an imported name, or a string that
is exactly the name (the benchmark wraps attributes by name); the strings of
``__all__`` do not count.
"""

import argparse
import ast
import inspect
from collections import Counter
from pathlib import Path

import handspd
from handspd import cli, data, errors, gradcheck
from handspd.classify import SvmConfig
from handspd.network import NetworkConfig
from handspd.optim import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "handspd"
ALLOWED = {"__all__", "__version__"}
# What each command builds or calls with ``cli._configure`` from its flags.
CONFIGURED = {
    "train": (NetworkConfig, TrainConfig),
    "svm": (SvmConfig,),
    "pipeline": (SvmConfig,),
    "synth": (data.synth_generate,),
    "gradcheck": (gradcheck.run,),
}


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _referenced(tree: ast.Module | ast.FunctionDef):
    exported = {
        id(elt)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
            yield node.value


def _members(tree: ast.Module):
    """(qualified name, node) of every public method and property of a
    public class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}", node


TREES = {path: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}
REFERENCES = Counter(name for tree in TREES.values() for name in _referenced(tree))


def test_every_public_name_has_a_caller_outside_tests():
    unused = [
        f"{path.stem}.{name}"
        for path, tree in TREES.items()
        if path.parent == PACKAGE
        for name in _defined(tree)
        if not name.startswith("_") and name not in ALLOWED and not REFERENCES[name]
    ]
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"


def test_every_public_class_member_has_a_caller_outside_tests():
    # A reference inside the member's own body does not count.
    unused = [
        f"{path.stem}.{qualified}"
        for path, tree in TREES.items()
        if path.parent == PACKAGE
        for qualified, node in _members(tree)
        if REFERENCES[node.name] <= Counter(_referenced(node))[node.name]
    ]
    assert not unused, f"public class members with no caller in src/ or perfbench/: {unused}"


def _options():
    """(command, action) for every option of ``cli.make_parser()``."""
    parser = cli.make_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in [("", parser), *subparsers.choices.items()]:
        for action in sub._actions:
            if action.default != argparse.SUPPRESS:
                yield command, action


def _parameters(command):
    """Name to ``inspect.Parameter`` over the ``_configure`` targets of ``command``."""
    return {name: parameter for target in CONFIGURED.get(command, ())
            for name, parameter in inspect.signature(target).parameters.items()}


def test_every_command_line_option_is_read():
    # A read is an ``args.<dest>`` attribute in cli.py or a parameter of a
    # target that ``_configure`` calls with ``args`` for the option's command.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    unread = [f"{command} {action.option_strings or action.dest}"
              for command, action in _options()
              if action.dest not in read and action.dest not in _parameters(command)]
    assert not unread, f"options that cli.py never reads: {unread}"


def test_options_leave_the_defaults_to_the_library():
    # A flag that feeds a parameter with a default defaults to None, so the
    # library's default is the only one.
    set_by_hand = [f"{command} {action.option_strings}: {action.default!r}"
                   for command, action in _options()
                   if (parameter := _parameters(command).get(action.dest)) is not None
                   and parameter.default is not inspect.Parameter.empty and action.default is not None]
    assert not set_by_hand, f"options with a default of their own: {set_by_hand}"


ERROR_TYPES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.HandSpdError)}


def test_every_error_type_is_exported():
    # A caller catches the package's errors by the names ``handspd`` exports.
    assert ERROR_TYPES - set(handspd.__all__) == set()
    assert all(getattr(handspd, name) is getattr(errors, name) for name in ERROR_TYPES)


def test_every_error_subclass_is_raised_in_src():
    # A type that no ``raise Type(...)`` in src/ builds names a failure that
    # cannot happen; importing or exporting it does not count.
    raised = {node.exc.func.id
              for path, tree in TREES.items() if path.parent == PACKAGE
              for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)}
    assert ERROR_TYPES - {"HandSpdError"} - raised == set()
