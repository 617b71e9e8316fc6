"""The stage-form oracles of oracles.py stay independent of the kernels they
check: an oracle built on the kernel it checks agrees with any mutant of it."""

import ast
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")

INDEPENDENT = ("rhs_full", "rhs_adiabatic", "rhs_reduced",
               "closed_form_sequence")
KERNELS = {"system_matrix", "_adiabatic_generator", "_reduced_generator",
           "rk4_step_matrix", "propagate_batch", "_fold"}


def _referenced(name):
    """The names the oracle ``name`` refers to, bare or as an attribute,
    with import aliases resolved, through every oracles.py function it
    reaches."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    seen, todo, names = set(), [name], set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(functions[current]):
            if isinstance(node, ast.Name):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            else:
                continue
            names.add(aliases.get(ref, ref))
            if ref in functions:
                todo.append(ref)
    return names


@pytest.mark.parametrize("name", INDEPENDENT)
def test_oracle_uses_no_kernel(name):
    assert not _referenced(name) & KERNELS
