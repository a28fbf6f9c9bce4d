"""Text format for signatures and named diagrams.

Statements are semicolon-terminated; ``#`` starts a comment running to
the end of the line::

    object A frobenius selfdual;
    gen f : A -> B;
    diag d = f >> dg(f);        # the 'diag' keyword may be omitted

Expressions compose left to right with ``>>`` (``a >> b`` applies ``a``
first) and tensor with ``x``, which binds tighter.  Atomic expressions
are generator or previously defined diagram names, ``id(WORD)``,
``swap(WORD, WORD)``, ``cup(A)``, ``cap(A)``, ``dg(E)``, ``name(E)``,
``coname(E)``, ``spider(A, k, l)``, and parenthesized expressions.
Object words are ``I`` or atoms joined by ``x``, each with an optional
``*`` marking the dual.  Atoms are declared implicitly on first use;
structure flags require an ``object`` statement.

The token pattern ``_TOKEN`` is the one definition of a token, but
``tokenize`` does not scan the text with it: it drops comments, pads
every symbol with spaces and splits on whitespace (``str.split`` and the
pattern's ``\\s`` agree on what whitespace is), then matches each
distinct piece against the pattern.  A piece holding several tokens is
cut by the pattern; the first character that starts no token is
reported where it stands in the text.  So the tokens are the pattern's
own, as a list of strings ended by the empty string; no per-token object
is built, and a source position is worked out from the text, by
``_offset``, only when a ParseError is raised.

Expressions are read by one operator-precedence loop over an explicit
stack of open ``(``, ``dg(``, ``name(`` and ``coname(`` frames, so no
method recurses and nesting depth is not bounded by the recursion limit.
Within one parse, equal leaf or flat-group text is one shared term, built
at its first occurrence only, so a parsed term is a DAG.  A leaf is a name
or a built-in other than ``dg``, ``name`` and ``coname``; a flat group is
an opener, leaves joined by ``x`` or ``>>``, and its ``)``.  At an opener
the loop hops over leaves to that ``)`` to look the group's tokens up; a
nested opener stops the hop, so each token is hopped at most once.
"""

from __future__ import annotations

import re

from . import terms
from .terms import (Cap, Cup, Dagger, Gen, Id, ObjectWord, Par, ParseError, Seq, Signature, Spider, Swap, TypeMismatch,
                    UNIT, Value)

RESERVED = frozenset(
    [
        "object", "gen", "diag", "id", "swap", "cup", "cap", "dg",
        "name", "coname", "spider", "frobenius", "selfdual", "I", "x",
    ]
)

_SYMBOLS = frozenset([";", ":", "=", ",", "(", ")", "*", "->", ">>"])

# Whitespace (str.isspace, which is re's \s) and comments. Nothing
# follows it in a pattern and it always matches, so it never backtracks.
_SKIP = r"\s*(?:#[^\n]*\s*)*"
# One token and the skip after it.  Identifiers start with str.isalpha()
# or "_" and go on with str.isalnum() or "_" (re's \w); integers are runs
# of str.isdigit().  re's \d is only str.isdecimal(), so {start} lists
# the text's numeric non-letters to keep out of an identifier's start and
# {digits} its non-decimal digits.  Any other character swallows the rest
# of the text, so a bad character is always the last token.
_TOKEN = r"(->|>>|[;:=,()*]|[^\W\d{start}]\w*|[\d{digits}]+|\S[\s\S]*)" + _SKIP
_SKIP_RE = re.compile(_SKIP)
_SCAN = re.compile(_TOKEN.format(start="", digits=""))
_COMMENT = re.compile(r"#[^\n]*")
# The symbols, each padded with spaces before the text is split: "->"
# goes before ">>" so that "->>>" splits as "->", ">>", as the pattern
# reads it.
_PADDED = (";", ":", "=", ",", "(", ")", "*", "->", ">>")

# Tokens that open an expression frame; all but "(" are followed by "(".
_OPENERS = frozenset(["(", "dg", "name", "coname"])
_BUILT_INS = frozenset(["id", "swap", "cup", "cap", "spider"])  # the leaves followed by "("


def _scanner(text):
    """The token pattern, exact for every character `text` holds."""
    if text.isascii():
        return _SCAN
    chars = set(text)
    start = "".join(c for c in chars if c.isnumeric() and not (c.isalpha() or c.isdecimal()))
    digits = "".join(c for c in chars if c.isdigit() and not c.isdecimal())
    if not (start or digits):
        return _SCAN
    return re.compile(_TOKEN.format(start=re.escape(start), digits=re.escape(digits)))


def _is_name(tok):
    return tok[:1].isalpha() or tok[:1] == "_"


def _position(text, offset):
    """1-based line and column of a character offset; only "\\n" starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(message, text, offset):
    """ParseError at a character offset."""
    return ParseError(message, *_position(text, offset))


def _offset(text, index):
    """Character offset of token `index` of tokenize(text)."""
    scan = _scanner(text).finditer(text, _SKIP_RE.match(text).end())
    for i, match in enumerate(scan):
        if i == index:
            return match.start()
    # The end of input sits before a comment that ends the text.
    comment = text.find("#", text.rfind("\n") + 1)
    return len(text) if comment < 0 else comment


def _is_token(tok):
    """Whether a piece the token pattern cut off is a token, not a bad character."""
    return tok in _SYMBOLS or _is_name(tok) or tok[0].isdigit()


def tokenize(text):
    """The tokens of `text` as strings, ended by the empty string: those
    the token pattern finds, read by splitting the padded text.

    Raises ParseError at the first character that starts no token.
    """
    body = _COMMENT.sub("", text) if "#" in text else text
    for sym in _PADDED:
        body = body.replace(sym, f" {sym} ")
    pieces = body.split()
    scan = _scanner(text)
    cut = {}  # piece -> its tokens, for the pieces that are not one token
    for piece in set(pieces):
        match = scan.match(piece)
        if match.end() < len(piece) or not _is_token(match[1]):
            cut[piece] = scan.findall(piece)
    if cut:
        pieces = [tok for piece in pieces for tok in cut.get(piece, (piece,))]
        if not all(_is_token(tok) for toks in cut.values() for tok in toks):
            # a bad character, which swallowed the rest of its piece
            k = next(k for k, tok in enumerate(pieces) if not _is_token(tok))
            raise _error(f"unexpected character {pieces[k][0]!r}", text, _offset(text, k))
    pieces.append("")
    return pieces


class ParseResult(Value):
    """A signature together with the file's named diagrams, in order."""

    __slots__ = ("signature", "diagrams")


class _Parser:
    def __init__(self, text):
        self.text = text
        tokens = tokenize(text)
        tokens.append(")")  # so every tokens.index(")") succeeds
        self.tokens = tuple(tokens)  # whose slices are leaf and group keys
        self.pos = 0
        self.sig = Signature()
        self.diagrams = {}
        self.leaves = {}  # generator name, or a built-in's or flat group's tokens up to ")" -> term

    def fail(self, message, at=None):
        """Raise ParseError at token index `at`, by default the next one."""
        at = self.pos if at is None else at
        raise _error(message, self.text, _offset(self.text, at))

    def expect(self, sym):
        tok = self.tokens[self.pos]
        if tok != sym:
            self.fail(f"expected {sym!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def expect_name(self, what):
        tok = self.tokens[self.pos]
        if not _is_name(tok):
            self.fail(f"expected {what}, found {tok or 'end of input'!r}")
        if tok in RESERVED:
            self.fail(f"{tok!r} is a reserved word")
        self.pos += 1
        return tok

    # Statements

    def parse_module(self):
        while tok := self.tokens[self.pos]:
            if not _is_name(tok):
                self.fail(f"expected a declaration, found {tok!r}")
            if tok == "object":
                self.object_decl()
            elif tok == "gen":
                self.gen_decl()
            else:
                if tok == "diag":
                    self.pos += 1
                self.diag_decl()
        return ParseResult(self.sig, self.diagrams)

    def object_decl(self):
        self.pos += 1
        at = self.pos
        name = self.expect_name("an object name")
        flags = set()
        while self.tokens[self.pos] in ("frobenius", "selfdual"):
            flags.add(self.tokens[self.pos])
            self.pos += 1
        self.expect(";")
        try:
            self.sig.declare_object(name, "frobenius" in flags, "selfdual" in flags)
        except ValueError as exc:
            self.fail(str(exc), at)

    def gen_decl(self):
        self.pos += 1
        at = self.pos
        name = self.expect_name("a generator name")
        self.expect(":")
        dom = self.word()
        self.expect("->")
        cod = self.word()
        self.expect(";")
        if name in self.diagrams:
            self.fail(f"name {name!r} already used by a diagram", at)
        try:
            self.sig.declare_generator(name, dom, cod)
        except ValueError as exc:
            self.fail(str(exc), at)

    def diag_decl(self):
        at = self.pos
        name = self.expect_name("a diagram name")
        if name in self.diagrams or name in self.sig.generators or name in self.sig.objects:
            self.fail(f"name {name!r} already in use", at)
        self.expect("=")
        term = self.expr()
        self.expect(";")
        self.diagrams[name] = term

    # Object words and built-in arguments

    def word(self):
        if self.tokens[self.pos] == "I":
            self.pos += 1
            return UNIT
        factors = []
        while True:
            atom = self.atom_name()
            dual = self.tokens[self.pos] == "*"
            self.pos += dual
            factors.append((atom, dual))
            if self.tokens[self.pos] != "x":
                return ObjectWord(tuple(factors))
            self.pos += 1

    def atom_name(self):
        name = self.expect_name("an object name")
        self.sig.ensure_atom(name)
        return name

    def int_arg(self):
        tok = self.tokens[self.pos]
        if not tok.isdecimal():
            self.fail(f"expected a leg count, found {tok!r}")
        self.pos += 1
        return int(tok)

    # Expressions

    def expr(self):
        """Read an expression up to the first token that cannot go on it.

        One frame per open bracket holds the token index of its keyword
        (or of a plain "("), the ">>" composite of the stages read so far
        and the "x" product of the stage being read; the outermost frame's
        index is None.  A frame that closes with no opener met after its
        own is flat, and its term is kept by its tokens.
        """
        tokens, leaves, pos = self.tokens, self.leaves, self.pos
        stack = []
        opener = seq = par = None
        last = -1  # index of the latest opener met: a frame is flat while it is its own latest
        while True:
            tok = tokens[pos]
            if tok in _OPENERS:
                # Hop the operands to the ")" of a flat group; a nested opener stops the hop.
                last, j = pos, pos + (tok != "(")
                while (nxt := tokens[j + 1]) != ")" and nxt not in _OPENERS:
                    j = tokens.index(")", j + 1) if nxt in _BUILT_INS else j + 1
                if nxt != ")" or (term := leaves.get(tokens[pos:j + 1])) is None:  # nested, or not met before
                    stack.append((opener, seq, par))
                    opener, seq, par, self.pos = pos, None, None, pos + 1
                    if tok != "(":
                        self.expect("(")
                    pos = self.pos
                    continue
                pos = j + 2
            else:
                end = tokens.index(")", pos) if tok in _BUILT_INS else pos  # a built-in's arguments hold no bracket
                term = leaves.get(tokens[pos:end] if end > pos else tok)  # a leaf met before, by its text up to ")"
                if term is None:
                    term, end = self.atom(pos), self.pos - 1
                pos = end + 1
            while True:
                par = term if par is None else Par(par, term)
                tok = tokens[pos]
                if tok == "x":
                    pos += 1
                    break
                if tok == ">>":
                    seq = par if seq is None else Seq(par, seq)
                    par = None
                    pos += 1
                    break
                term = par if seq is None else Seq(par, seq)
                self.pos = pos
                if opener is None:
                    return term
                if tok != ")":
                    self.expect(")")  # raises
                pos += 1
                keyword = tokens[opener]
                if keyword == "dg":
                    term = Dagger(term)
                elif keyword != "(":
                    try:
                        term = (terms.name if keyword == "name" else terms.coname)(term, self.sig)
                    except TypeMismatch as exc:
                        exc.line, exc.col = _position(self.text, _offset(self.text, opener))
                        raise
                if opener == last:
                    leaves[tokens[opener:pos - 1]] = term
                opener, seq, par = stack.pop()

    def atom(self, at):
        """The named diagram, or the generator or built-in other than dg,
        name and coname met for the first time, at token `at`; a leaf is
        kept to be looked up."""
        tok = self.tokens[at]
        self.pos = at + 1
        if tok in self.sig.generators:
            return self.leaves.setdefault(tok, Gen(tok))
        if tok in self.diagrams:
            return self.diagrams[tok]
        if tok == "id":
            self.expect("(")
            term = Id(self.word())
        elif tok == "swap":
            self.expect("(")
            left = self.word()
            self.expect(",")
            term = Swap(left, self.word())
        elif tok in ("cup", "cap"):
            self.expect("(")
            term = (Cup if tok == "cup" else Cap)(self.atom_name())
        elif tok == "spider":
            self.expect("(")
            atom = self.atom_name()
            self.expect(",")
            legs_in = self.int_arg()
            self.expect(",")
            term = Spider(atom, legs_in, self.int_arg())
        elif not _is_name(tok):
            self.fail(f"unexpected {tok or 'end of input'!r}", at)
        elif tok in RESERVED:
            self.fail(f"unexpected keyword {tok!r}", at)
        else:
            self.fail(f"unknown identifier {tok!r}", at)
        self.expect(")")
        self.leaves[self.tokens[at:self.pos - 1]] = term
        return term


def parse(text):
    """Parse a module of declarations into a ParseResult.

    Equal leaf or flat-group text yields one shared term object per call,
    so a parsed term is a DAG.  Raises ParseError (with .line and .col)
    for malformed input.  A TypeMismatch from name(...) or coname(...)
    propagates with .line and .col set to that keyword's position.
    """
    return _Parser(text).parse_module()
