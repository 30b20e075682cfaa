"""Vadalog-lite: a stratified Datalog reasoner with negation and built-ins.

This package reproduces the role of the *Vadalog Reasoner* in the VADA
architecture: evaluating transducer input dependencies over the knowledge
base, expressing orchestration conditions, and representing schema mappings.
The full Datalog± language of the paper is substituted by stratified Datalog
(see DESIGN.md §2 for the substitution rationale).
"""

from repro.datalog.engine import Database, Engine, evaluate, query
from repro.datalog.errors import (
    DatalogError,
    EvaluationError,
    ParseError,
    SafetyError,
    StratificationError,
    UnknownPredicateError,
)
from repro.datalog.parser import parse_atom, parse_program, parse_rule
from repro.datalog.program import Program
from repro.datalog.stratify import evaluation_order, stratify
from repro.datalog.terms import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Rule,
    Variable,
    fact,
)

__all__ = [
    "Atom",
    "Comparison",
    "Constant",
    "Literal",
    "Rule",
    "Variable",
    "fact",
    "Program",
    "Database",
    "Engine",
    "evaluate",
    "query",
    "parse_program",
    "parse_rule",
    "parse_atom",
    "evaluation_order",
    "stratify",
    "DatalogError",
    "ParseError",
    "SafetyError",
    "StratificationError",
    "EvaluationError",
    "UnknownPredicateError",
]
