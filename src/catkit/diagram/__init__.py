"""Free dagger compact symmetric monoidal diagrams.

- terms: signatures, object words, term constructors, typechecking,
  and the derived transpose/name/coname helpers.
- parser: the semicolon-terminated text format.
- graphs: the wiring walk that flattens terms, the port-graph normal
  form and its equality decision.
"""

from .graphs import BoxNode, OpenGraph, SpiderNode, graph_eq, to_graph
from .parser import ParseError, ParseResult, parse, tokenize
from .terms import (
    UNIT,
    Cap,
    Cup,
    Dagger,
    DiagramError,
    DiagramTerm,
    Gen,
    GenDecl,
    Id,
    ObjectDecl,
    ObjectWord,
    Par,
    Seq,
    Signature,
    Spider,
    Swap,
    TypeMismatch,
    UnknownName,
    coname,
    name,
    transpose,
    typecheck,
)

__all__ = [
    "UNIT",
    "BoxNode",
    "Cap",
    "Cup",
    "Dagger",
    "DiagramError",
    "DiagramTerm",
    "Gen",
    "GenDecl",
    "Id",
    "ObjectDecl",
    "ObjectWord",
    "OpenGraph",
    "Par",
    "ParseError",
    "ParseResult",
    "Seq",
    "Signature",
    "Spider",
    "SpiderNode",
    "Swap",
    "TypeMismatch",
    "UnknownName",
    "coname",
    "graph_eq",
    "name",
    "parse",
    "to_graph",
    "tokenize",
    "transpose",
    "typecheck",
]
