"""Free dagger compact symmetric monoidal diagrams.

- terms: signatures, object words, term constructors, typechecking,
  the derived transpose/name/coname helpers, and the error classes.
- parser: the semicolon-terminated text format.
- graphs: the wiring walk that flattens terms, the port-graph normal
  form and its equality decision.

Exports load on first use, as catkit's do: importing terms alone
compiles neither parser nor graphs.
"""

from .. import _lazy_exports

# each exported name under the module that defines it
_EXPORTS = {
    "graphs": ("BoxNode", "OpenGraph", "SpiderNode", "graph_eq", "to_graph"),
    "parser": ("ParseResult", "parse", "tokenize"),
    "terms": (
        "UNIT", "Cap", "Cup", "Dagger", "DiagramError", "DiagramTerm", "Gen", "GenDecl", "Id",
        "ObjectDecl", "ObjectWord", "Par", "ParseError", "Seq", "Signature", "Spider", "Swap",
        "TypeMismatch", "UnknownName", "coname", "name", "transpose", "typecheck",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
