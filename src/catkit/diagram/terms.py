"""Terms over a signature with dagger compact symmetric monoidal structure.

A Signature declares named atomic objects, each optionally flagged as
carrying frobenius structure or as self-dual, plus typed generator
morphisms between tensor words of atoms.  DiagramTerm trees combine
generators with sequential composition, tensoring, symmetries, duality
bends, daggers, and spider nodes.  ``typecheck`` assigns every term a
unique (domain, codomain) pair of words or raises TypeMismatch.
"""

from __future__ import annotations


class DiagramError(Exception):
    """Base class for term, type, and parse problems."""


class TypeMismatch(DiagramError):
    """A term does not admit a consistent domain/codomain assignment."""


class UnknownName(DiagramError):
    """A term references a generator or atom missing from the signature."""


class ParseError(DiagramError):
    """Syntax or name-resolution failure with a source position."""

    def __init__(self, message, line, col):
        super().__init__(message)
        self.line = line
        self.col = col


class DataclassFields:
    """A Value class's ``__dataclass_fields__`` and ``__dataclass_params__``,
    made by ``dataclasses`` from its constructor on first use, so ``replace``,
    ``fields`` and ``asdict`` take a value record as they take a frozen
    dataclass, and importing catkit loads no ``dataclasses``.  Term nodes
    never were dataclasses and have none."""

    def __get__(self, obj, cls):
        init = cls.__dict__.get("__init__")
        if init is None or issubclass(cls, DiagramTerm):
            raise AttributeError("__dataclass_fields__")
        from dataclasses import field, make_dataclass

        names, defaults = init.__code__.co_varnames[1 : init.__code__.co_argcount], init.__defaults__ or ()
        kinds = [{}] * (len(names) - len(defaults)) + [{"default": d} for d in defaults]
        fields = [(n, cls.__annotations__.get(n, object), field(**k)) for n, k in zip(names, kinds)]
        model = make_dataclass(cls.__name__, fields, frozen=True)
        cls.__dataclass_fields__, cls.__dataclass_params__ = model.__dataclass_fields__, model.__dataclass_params__
        return model.__dataclass_fields__


class Value:
    """Base class of immutable records compared by value, as a frozen dataclass is.

    A subclass names its fields in ``__slots__`` and the defaults of its
    last fields, if any, in ``_defaults``.  It gets a constructor taking the
    fields in order, by position or keyword; ``__eq__`` and ``__hash__``
    over the fields, equal only within one class; a ``Name(field=...)``
    repr; an AttributeError on assignment or deletion; pickling through
    the constructor; and DataclassFields.  The constructor, ``__eq__`` and
    ``__hash__`` are compiled once per class, the constructor calling the
    slots' own setters: no decorator runs on import, and a four-field value
    builds in 0.6 of a frozen dataclass's time (CPython 3.11, x86-64 Xeon).
    """

    __slots__ = ()
    __dataclass_fields__ = DataclassFields()

    def __init_subclass__(cls):
        fields = cls.__match_args__ = cls.__slots__
        if not fields:  # an abstract base, DiagramTerm
            return
        own = "".join(f"self.{f}, " for f in fields)  # "self.a, self.b, ", inside a tuple display
        source = f"""
def __init__(self, {', '.join(fields)}):
    {'; '.join(f'set_{f}(self, {f})' for f in fields)}
def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ({own}) == ({own.replace('self.', 'other.')})
def __hash__(self):
    return hash(({own}))
"""
        methods = {f"set_{f}": cls.__dict__[f].__set__ for f in fields}  # the slots' own setters
        exec(source, methods)
        methods["__init__"].__defaults__ = cls.__dict__.get("_defaults")
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, methods[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # so pickle and copy rebuild a value through its constructor
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        """``Name(field=..., ...)``, written out on an explicit stack."""
        out, todo = [], [(False, self)]  # (is text, the text or a value to show)
        while todo:
            text, t = todo.pop()
            if text or not isinstance(t, Value):
                out.append(t if text else repr(t))
                continue
            todo.append((True, ")"))
            for k, f in reversed([*enumerate(t.__slots__)]):
                todo += (False, getattr(t, f)), (True, f"{', ' if k else type(t).__qualname__ + '('}{f}=")
        return "".join(out)


class ObjectWord(Value):
    """Tensor word over atomic objects; the empty word is the unit I.

    Each factor is a pair (atom, dual) where dual marks the dual object.
    """

    __slots__, _defaults = ("factors",), ((),)
    factors: tuple

    @classmethod
    def atom(cls, name, dual=False):
        return cls(((name, bool(dual)),))

    @classmethod
    def of(cls, *names):
        """Word of plain (non-dual) atoms in the given order."""
        return cls(tuple((n, False) for n in names))

    def tensor(self, other):
        return ObjectWord(self.factors + other.factors)

    def __len__(self):
        return len(self.factors)

    def __str__(self):
        if not self.factors:
            return "I"
        return " x ".join(a + ("*" if d else "") for a, d in self.factors)


UNIT = ObjectWord()


class ObjectDecl(Value):
    __slots__, _defaults = ("name", "frobenius", "self_dual"), (False, False)
    name: str
    frobenius: bool
    self_dual: bool


class GenDecl(Value):
    __slots__ = ("name", "dom", "cod")
    name: str
    dom: ObjectWord
    cod: ObjectWord


class Signature:
    """Named atoms plus typed generator symbols.

    Atoms referenced by a generator type are registered automatically
    with default flags; structure flags require an explicit
    declare_object call before first use.
    """

    def __init__(self):
        self.objects = {}
        self.generators = {}

    def declare_object(self, name, frobenius=False, self_dual=False):
        if name in self.objects:
            raise ValueError(f"object {name!r} declared twice")
        if name in self.generators:
            raise ValueError(f"name {name!r} already used by a generator")
        decl = ObjectDecl(name, bool(frobenius), bool(self_dual))
        self.objects[name] = decl
        return decl

    def declare_generator(self, name, dom, cod):
        if name in self.generators:
            raise ValueError(f"generator {name!r} declared twice")
        if name in self.objects:
            raise ValueError(f"name {name!r} already used by an object")
        for word in (dom, cod):
            for atom, _ in word.factors:
                self.ensure_atom(atom)
        decl = GenDecl(name, self.normalize(dom), self.normalize(cod))
        self.generators[name] = decl
        return decl

    def ensure_atom(self, name):
        """Register an atom with default flags if it is not yet known."""
        if name not in self.objects:
            self.objects[name] = ObjectDecl(name)
        return self.objects[name]

    def normalize(self, word):
        """Erase the dual mark on self-dual atoms."""
        factors = []
        for atom, dual in word.factors:
            decl = self.objects.get(atom)
            if decl is None:
                raise UnknownName(f"unknown object {atom!r}")
            factors.append((atom, dual and not decl.self_dual))
        return ObjectWord(tuple(factors))


class DiagramTerm(Value):
    """Base class of the term nodes, immutable trees compared by value.

    ``Seq``, ``Par`` and ``Dagger`` replace Value's ``__eq__``, ``__hash__``
    and pickling with explicit-stack ones.  The node classes are final: the
    layers that walk a term dispatch on its class, so no other Value is one.
    """

    __slots__ = ()


class Gen(DiagramTerm):
    """Occurrence of a named generator."""

    __slots__ = ("name",)
    name: str


class Id(DiagramTerm):
    """Identity on a word; Id(UNIT) is the empty diagram."""

    __slots__ = ("word",)
    word: ObjectWord


class Seq(DiagramTerm):
    """Sequential composite: `before` is applied first, then `after`."""

    __slots__ = ("after", "before")
    after: DiagramTerm
    before: DiagramTerm


class Par(DiagramTerm):
    """Side-by-side tensor of two terms."""

    __slots__ = ("left", "right")
    left: DiagramTerm
    right: DiagramTerm


class Swap(DiagramTerm):
    """Symmetry left x right -> right x left; pure wire crossing."""

    __slots__ = ("left", "right")
    left: ObjectWord
    right: ObjectWord


class Cup(DiagramTerm):
    """Duality unit I -> A* x A for a single atom."""

    __slots__ = ("atom",)
    atom: str


class Cap(DiagramTerm):
    """Duality counit A x A* -> I for a single atom."""

    __slots__ = ("atom",)
    atom: str


class Dagger(DiagramTerm):
    """Adjoint of a term; swaps domain and codomain."""

    __slots__ = ("inner",)
    inner: DiagramTerm


class Spider(DiagramTerm):
    """Frobenius node with legs_in inputs and legs_out outputs."""

    __slots__ = ("atom", "legs_in", "legs_out")
    atom: str
    legs_in: int
    legs_out: int


def _branch_eq(self, other):
    """Field-wise equality on an explicit stack, each pair of composite subterms compared once."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    todo, seen = [(self, other)], set()
    while todo:
        a, b = todo.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        if a.__class__ in _BRANCHES and a.__class__ is b.__class__:
            seen.add((id(a), id(b)))
            todo += zip([getattr(a, f) for f in a.__slots__], [getattr(b, f) for f in a.__slots__])
        elif a != b:  # a leaf's own __eq__; terms of two classes are never equal
            return False
    return True


def _post_order(term):
    """term's distinct composites, each after its composite fields, as (class,
    *fields) with each composite field the index of its entry (no term is an int)."""
    nodes, index, todo = [], {}, [term]  # term keeps every id alive
    while todo:
        t = todo.pop()
        fields = [getattr(t, f) for f in t.__slots__]
        pending = [f for f in fields if f.__class__ in _BRANCHES and id(f) not in index]
        if pending:
            todo += [t, *pending]
        elif id(t) not in index:
            index[id(t)] = len(nodes)
            nodes.append((t.__class__, *(index.get(id(f), f) for f in fields)))
    return nodes


def _rebuild(nodes, make=None):
    """The term _post_order listed, built entry by entry as pickle and copy
    rebuild it; or, given make, make(*fields) in place of each class."""
    built = []
    for cls, *fields in nodes:
        built.append((make or cls)(*(built[f] if f.__class__ is int else f for f in fields)))
    return built[-1]


# Composites compare, hash and pickle without recursing, so a term of any
# depth, or a DAG sharing subterms, costs one visit per distinct pair or subterm;
# a composite's hash is over its fields' hashes.
_BRANCHES = frozenset([Seq, Par, Dagger])
for _cls in _BRANCHES:
    _cls.__eq__, _cls.__reduce__ = _branch_eq, lambda self: (_rebuild, (_post_order(self),))
    _cls.__hash__ = lambda self: _rebuild(_post_order(self), lambda *fields: hash(fields))


def typecheck(term, sig):
    """Return the (dom, cod) pair of words for a term.

    Raises TypeMismatch when sequential composition does not line up or
    a spider sits on a non-frobenius atom, and UnknownName for
    undeclared generators or atoms.  ``Wiring.walk`` types a term as it
    flattens it, so the layers that walk a term do not call this; it is
    for ``catkit check``, transpose, name and coname, and terms sharing
    subterms.  The explicit stack here types a subterm shared by several
    parents once, and each distinct value of a spider, identity, swap or
    bend leaf once, since its type depends only on its fields.
    """
    types = {}  # id(subterm) -> (dom, cod) factor tuples; the term keeps every id alive
    leaves = {}  # leaf -> (dom, cod); leaves of different classes are never equal
    todo = [(term, False)]
    while todo:
        t, expanded = todo.pop()
        if id(t) in types:
            continue
        cls = t.__class__  # the node classes are final
        if cls is Seq:
            if not expanded:
                todo += [(t, True), (t.after, False), (t.before, False)]
                continue
            (dom, produced), (expected, cod) = types[id(t.before)], types[id(t.after)]
            if produced != expected:
                raise mismatch(produced, expected)
            types[id(t)] = dom, cod
        elif cls is Par:
            if not expanded:
                todo += [(t, True), (t.right, False), (t.left, False)]
                continue
            (ldom, lcod), (rdom, rcod) = types[id(t.left)], types[id(t.right)]
            types[id(t)] = ldom + rdom, lcod + rcod
        elif cls is Dagger:
            if not expanded:
                todo += [(t, True), (t.inner, False)]
                continue
            types[id(t)] = types[id(t.inner)][::-1]
        elif cls is Gen or cls not in (Id, Swap, Cup, Cap, Spider):
            # a generator's type is one signature lookup already; a stray list is unhashable
            types[id(t)] = leaf_type(t, sig)
        else:
            leaf = leaves.get(t)
            if leaf is None:
                leaf = leaves[t] = leaf_type(t, sig)
            types[id(t)] = leaf
    return tuple(map(ObjectWord, types[id(term)]))


def mismatch(produced, expected):
    """The error for a composition whose stages meet on different factors."""
    produced, expected = ObjectWord(produced), ObjectWord(expected)
    return TypeMismatch(f"cannot compose: first stage produces {produced} but second expects {expected}")


def leaf_type(term, sig):
    """The (dom, cod) factor tuples of a leaf of a term."""
    cls = term.__class__
    if cls is Gen:
        decl = sig.generators.get(term.name)
        if decl is None:
            raise UnknownName(f"unknown generator {term.name!r}")
        return decl.dom.factors, decl.cod.factors
    if cls is Id:
        word = sig.normalize(term.word).factors
        return word, word
    if cls is Swap:
        left, right = sig.normalize(term.left).factors, sig.normalize(term.right).factors
        return left + right, right + left
    if cls is Cup:
        return (), sig.normalize(ObjectWord(((term.atom, True), (term.atom, False)))).factors
    if cls is Cap:
        return sig.normalize(ObjectWord(((term.atom, False), (term.atom, True)))).factors, ()
    if cls is Spider:
        decl = sig.objects.get(term.atom)
        if decl is None:
            raise UnknownName(f"unknown object {term.atom!r}")
        if not decl.frobenius:
            raise TypeMismatch(f"spider legs require a frobenius atom, got {term.atom!r}")
        if term.legs_in < 0 or term.legs_out < 0:
            raise TypeMismatch("spider leg counts must be nonnegative")
        return ((term.atom, False),) * term.legs_in, ((term.atom, False),) * term.legs_out
    raise TypeError(f"not a diagram term: {term!r}")


def _endpoints(term, sig):
    """Single factors (dom, cod) for a term typed atom -> atom."""
    dom, cod = typecheck(term, sig)
    if len(dom.factors) != 1 or len(cod.factors) != 1:
        raise TypeMismatch(
            "transpose, name, and coname support terms typed between "
            f"single atoms, got {dom} -> {cod}"
        )
    return dom.factors[0], cod.factors[0]


def _dual_word(sig, factor):
    atom, dual = factor
    return sig.normalize(ObjectWord.atom(atom, not dual))


def _bends(sig, factor):
    """Bends typed I -> dual(factor) x factor and factor x dual(factor) -> I."""
    atom, dual = factor
    if not dual:
        return Cup(atom), Cap(atom)
    swap = Swap(sig.normalize(ObjectWord.atom(atom, True)), sig.normalize(ObjectWord.atom(atom)))
    return Seq(swap, Cup(atom)), Seq(Cap(atom), swap)


def transpose(term, sig):
    """Bend a term t: A -> B into B* -> A* using one cup and one cap."""
    a, b = _endpoints(term, sig)
    a_star, b_star = _dual_word(sig, a), _dual_word(sig, b)
    bottom = Par(_bends(sig, a)[0], Id(b_star))
    middle = Par(Id(a_star), Par(term, Id(b_star)))
    top = Par(Id(a_star), _bends(sig, b)[1])
    return Seq(top, Seq(middle, bottom))


def name(term, sig):
    """State I -> A* x B encoding a term t: A -> B."""
    a, _ = _endpoints(term, sig)
    return Seq(Par(Id(_dual_word(sig, a)), term), _bends(sig, a)[0])


def coname(term, sig):
    """Effect A x B* -> I encoding a term t: A -> B."""
    _, b = _endpoints(term, sig)
    return Seq(_bends(sig, b)[1], Par(term, Id(_dual_word(sig, b))))
