"""Pointer assignment graph, the textual fact format, and the synthetic
corpus generator.

The fact format is line oriented; ``#`` starts a comment and tokens are
whitespace separated::

    class Object                       # exactly one root, no extends
    class A extends Object [implements I1,I2]
    interface I [extends J1,J2]
    field f : Type
    var x : Type
    alloc o1 : ClassOrArrayType        # array types spelled Elem[]
    new x o1
    assign dst src                     # dst = src
    store base field src               # base.field = src
    load dst base field                # dst = base.field

Calls are expected to arrive pre-lowered to assignments (parameter and
return copies); there is no call statement.

A parsed program holds each name once.  Every var, field and alloc name in
an edge or a declaration is one string object, that of the name's first
mention, and every type name (of a var, a field or an ``AllocSite``) is
the hierarchy's key for the type, so a name that many statements mention
costs one string.  The parser resolves a statement's names on its own line
and appends its edge there, keeping no statement.  A name's first mention
must be an identifier, as a declared name must, or it is a syntax error at
that line; a name mentioned before any declaration of it is checked once
the file has been read.  The records are slotted.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .bitsets import ChunkConfig
from .errors import (
    DeclError,
    DuplicateNameError,
    FactSyntaxError,
    InvalidParamsError,
    UndeclaredVariableError,
    UnknownTypeError,
)
from .hierarchy import AllocSite, ClassHierarchy, build_hierarchy

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$.]*(\[\])*\Z")
_BARE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$.]*\Z")


@dataclass
class PAG:
    """Constraint graph: variable/alloc/field declarations plus the four
    edge kinds, in source order."""

    var_types: dict[str, str] = field(default_factory=dict)
    field_types: dict[str, str] = field(default_factory=dict)
    allocs: dict[str, AllocSite] = field(default_factory=dict)
    alloc_edges: list[tuple[str, str]] = field(default_factory=list)  # (alloc, var)
    assign_edges: list[tuple[str, str]] = field(default_factory=list)  # (dst, src)
    store_edges: list[tuple[str, str, str]] = field(default_factory=list)  # (base, field, src)
    load_edges: list[tuple[str, str, str]] = field(default_factory=list)  # (dst, base, field)
    class_decls: list[tuple[str, str | None, tuple[str, ...]]] = field(default_factory=list)
    iface_decls: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    def dereferenced_vars(self) -> list[str]:
        """Variables appearing as the base of a store or load, sorted."""
        bases = {b for b, _, _ in self.store_edges}
        bases |= {b for _, b, _ in self.load_edges}
        return sorted(bases)


def _check_ident(tok: str, line: int, bare: bool = False) -> str:
    pat = _BARE_IDENT if bare else _IDENT
    if not pat.match(tok):
        raise FactSyntaxError(f"invalid identifier {tok!r}", line)
    return tok


def _split_list(tok: str, line: int) -> tuple[str, ...]:
    names = tuple(t for t in tok.split(",") if t)
    if not names:
        raise FactSyntaxError("empty name list", line)
    for n in names:
        _check_ident(n, line)
    return names


def parse_program(text: str) -> tuple[ClassHierarchy, PAG]:
    """Parse fact text into a validated hierarchy and PAG."""
    pag = PAG()
    decl_lines: dict[str, int] = {}  # field, var and alloc name -> line
    # each var, field and alloc name -> the one object the parsed program
    # holds for it: the string of its first mention
    var_names: dict[str, str] = {}
    field_names: dict[str, str] = {}
    alloc_names: dict[str, str] = {}
    namespaces = {"var": var_names, "field": field_names, "alloc": alloc_names}
    # (what, name, line) of each name a statement mentions before any
    # declaration or statement does, in file order
    first_mentions: list[tuple[str, str, int]] = []
    type_lines: dict[str, int] = {}  # class, interface, first array mention -> line

    def declare_name(name: str, what: str, line: int):
        if name in decl_lines:
            raise DuplicateNameError(f"line {line}: duplicate {what} name {name!r}")
        decl_lines[name] = line

    def declare_type(name: str, line: int):
        if name in type_lines:
            raise DuplicateNameError(f"line {line}: duplicate type {name!r}")
        type_lines[name] = line

    def note_type(name: str, line: int):
        if name.endswith("[]"):
            type_lines.setdefault(name, line)

    def mention(names: dict[str, str], what: str, tok: str, line: int) -> str:
        name = names.get(tok)
        if name is None:  # a name seen before passed this or its declaration's check
            name = names[tok] = _check_ident(tok, line, bare=True)
            first_mentions.append((what, tok, line))
        return name

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        directive = toks[0]

        if directive == "class":
            if len(toks) not in (2, 4, 6):
                raise FactSyntaxError("malformed class declaration", lineno)
            name = _check_ident(toks[1], lineno, bare=True)
            parent = None
            ifaces: tuple[str, ...] = ()
            rest = toks[2:]
            if rest:
                if rest[0] != "extends":
                    raise FactSyntaxError("expected 'extends'", lineno)
                parent = _check_ident(rest[1], lineno, bare=True)
                rest = rest[2:]
            if rest:
                if rest[0] != "implements":
                    raise FactSyntaxError("expected 'implements'", lineno)
                ifaces = _split_list(rest[1], lineno)
            declare_type(name, lineno)
            pag.class_decls.append((name, parent, ifaces))
        elif directive == "interface":
            if len(toks) not in (2, 4):
                raise FactSyntaxError("malformed interface declaration", lineno)
            name = _check_ident(toks[1], lineno, bare=True)
            exts: tuple[str, ...] = ()
            if len(toks) == 4:
                if toks[2] != "extends":
                    raise FactSyntaxError("expected 'extends'", lineno)
                exts = _split_list(toks[3], lineno)
            declare_type(name, lineno)
            pag.iface_decls.append((name, exts))
        elif directive in namespaces:
            if len(toks) != 4 or toks[2] != ":":
                raise FactSyntaxError(f"malformed {directive} declaration", lineno)
            name = _check_ident(toks[1], lineno, bare=True)
            tname = _check_ident(toks[3], lineno)
            note_type(tname, lineno)
            declare_name(name, directive, lineno)
            name = namespaces[directive].setdefault(name, name)
            if directive == "field":
                pag.field_types[name] = tname
            elif directive == "var":
                pag.var_types[name] = tname
            else:
                pag.allocs[name] = AllocSite(id=name, type_name=tname)
        elif directive == "new":
            if len(toks) != 3:
                raise FactSyntaxError("expected: new <var> <allocId>", lineno)
            v = mention(var_names, "variable", toks[1], lineno)
            pag.alloc_edges.append((mention(alloc_names, "alloc", toks[2], lineno), v))
        elif directive == "assign":
            if len(toks) != 3:
                raise FactSyntaxError("expected: assign <dst> <src>", lineno)
            pag.assign_edges.append((
                mention(var_names, "variable", toks[1], lineno),
                mention(var_names, "variable", toks[2], lineno),
            ))
        elif directive == "store":
            if len(toks) != 4:
                raise FactSyntaxError("expected: store <base> <field> <src>", lineno)
            pag.store_edges.append((
                mention(var_names, "variable", toks[1], lineno),
                mention(field_names, "field", toks[2], lineno),
                mention(var_names, "variable", toks[3], lineno),
            ))
        elif directive == "load":
            if len(toks) != 4:
                raise FactSyntaxError("expected: load <dst> <base> <field>", lineno)
            pag.load_edges.append((
                mention(var_names, "variable", toks[1], lineno),
                mention(var_names, "variable", toks[2], lineno),
                mention(field_names, "field", toks[3], lineno),
            ))
        else:
            raise FactSyntaxError(f"unknown directive {directive!r}", lineno)

    arrays = [t for t in type_lines if t.endswith("[]")]
    try:
        h = build_hierarchy(pag.class_decls, pag.iface_decls, array_types=arrays)
    except DeclError as e:
        # with no class declared at all, a missing root is reported at line 1
        raise type(e)(f"line {type_lines.get(e.decl, 1)}: {e}") from None

    # every type name the program holds becomes the hierarchy's key
    types = h.types
    for what, named in (("var", pag.var_types), ("field", pag.field_types)):
        for name, tname in named.items():
            t = types.get(tname)
            if t is None:
                raise UnknownTypeError(
                    f"line {decl_lines[name]}: {what} {name}: unknown type {tname}"
                )
            named[name] = t.name
    for a in pag.allocs.values():
        t = types.get(a.type_name)
        if t is None:
            problem = f"unknown type {a.type_name}"
        elif not t.is_classlike:
            problem = f"allocated type {a.type_name} is an interface"
        else:
            a.type_name = t.name
            continue
        raise UnknownTypeError(f"line {decl_lines[a.id]}: alloc {a.id}: {problem}")

    # a statement's name that no declaration took over is undeclared
    declared = {"variable": pag.var_types, "field": pag.field_types, "alloc": pag.allocs}
    for what, name, line in first_mentions:
        if name not in declared[what]:
            raise UndeclaredVariableError(f"line {line}: undeclared {what} {name!r}")

    return h, pag


def format_program(pag: PAG) -> str:
    """Canonical re-emission of a parsed program (round-trip oracle)."""
    out: list[str] = []
    for name, parent, ifaces in pag.class_decls:
        line = f"class {name}"
        if parent is not None:
            line += f" extends {parent}"
        if ifaces:
            line += " implements " + ",".join(ifaces)
        out.append(line)
    for name, exts in pag.iface_decls:
        line = f"interface {name}"
        if exts:
            line += " extends " + ",".join(exts)
        out.append(line)
    for name, t in pag.field_types.items():
        out.append(f"field {name} : {t}")
    for name, t in pag.var_types.items():
        out.append(f"var {name} : {t}")
    for a in pag.allocs.values():
        out.append(f"alloc {a.id} : {a.type_name}")
    for o, v in pag.alloc_edges:
        out.append(f"new {v} {o}")
    for dst, src in pag.assign_edges:
        out.append(f"assign {dst} {src}")
    for base, f, src in pag.store_edges:
        out.append(f"store {base} {f} {src}")
    for dst, base, f in pag.load_edges:
        out.append(f"load {dst} {base} {f}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class GenParams:
    """The shape of a synthetic corpus, checked when made."""

    num_classes: int = 30
    num_interfaces: int = 5
    max_depth: int = 6
    num_fields: int = 8
    num_vars: int = 60
    num_statements: int = 400
    allocs_per_class: tuple[int, int] = (1, 4)
    store_load_ratio: float = 0.2  # fraction of statements that are stores/loads
    violation_rate: float = 0.1  # chance a statement ignores type direction
    pad_chunk: int | None = None  # pad alloc counts so intervals chunk-align

    def __post_init__(self):
        # types first, so the range checks below compare numbers; a bool
        # is no count, and a ratio may be an int or a float
        for name in ("num_classes", "num_interfaces", "max_depth", "num_fields",
                     "num_vars", "num_statements"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidParamsError(f"{name} must be an int, got {value!r}")
        pair = self.allocs_per_class
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(type(n) is int for n in pair)):
            raise InvalidParamsError(
                f"allocs_per_class must be a pair of ints, got {pair!r}"
            )
        for name in ("store_load_ratio", "violation_rate"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise InvalidParamsError(f"{name} must be a number, got {value!r}")
        if self.num_classes < 1:
            raise InvalidParamsError("num_classes must be >= 1")
        if self.num_interfaces < 0 or self.num_fields < 0:
            raise InvalidParamsError("counts must be non-negative")
        if self.num_vars < 1:
            raise InvalidParamsError("need at least one variable")
        if self.num_statements < 0:
            raise InvalidParamsError("num_statements must be >= 0")
        if self.max_depth < 1:
            raise InvalidParamsError("max_depth must be >= 1")
        if self.max_depth < 2 and self.num_classes > 1:
            raise InvalidParamsError("max_depth must be >= 2 for more than one class")
        lo, hi = self.allocs_per_class
        if lo < 0 or hi < lo:
            raise InvalidParamsError("bad allocs_per_class range")
        if not 0.0 <= self.store_load_ratio <= 1.0:
            raise InvalidParamsError("store_load_ratio must be in [0,1]")
        if not 0.0 <= self.violation_rate <= 1.0:
            raise InvalidParamsError("violation_rate must be in [0,1]")
        if self.pad_chunk is not None:
            try:
                ChunkConfig(self.pad_chunk)
            except InvalidParamsError as e:
                raise InvalidParamsError(f"pad_chunk: {e}") from None


def generate_synthetic(params: GenParams, seed: int) -> str:
    """Deterministic synthetic corpus; a pure function of (params, seed).

    Assignments are type-directed (source type a subtype of the destination
    type) except for a configurable violation fraction that exercises type
    filtering.
    """
    rng = random.Random(seed)
    p = params

    classes = ["Object"] + [f"C{i}" for i in range(1, p.num_classes)]
    depth = {"Object": 0}
    parent: dict[str, str | None] = {"Object": None}
    # classes shallow enough to take a subclass, in class order; the
    # params admit a second class only if Object is one of them
    candidates = ["Object"]
    for c in classes[1:]:
        par = rng.choice(candidates)
        parent[c] = par
        depth[c] = depth[par] + 1
        if depth[c] < p.max_depth - 1:
            candidates.append(c)

    interfaces = [f"I{i}" for i in range(1, p.num_interfaces + 1)]
    iface_decls: list[tuple[str, tuple[str, ...]]] = []
    for i, name in enumerate(interfaces):
        if i > 0 and rng.random() < 0.3:
            iface_decls.append((name, (rng.choice(interfaces[:i]),)))
        else:
            iface_decls.append((name, ()))

    class_decls: list[tuple[str, str | None, tuple[str, ...]]] = []
    for c in classes:
        if interfaces and c != "Object" and rng.random() < 0.3:
            class_decls.append((c, parent[c], (rng.choice(interfaces),)))
        else:
            class_decls.append((c, parent[c], ()))

    # each type's supertypes, itself included, for type-directed statements
    h = build_hierarchy(class_decls, iface_decls)
    supers: dict[str, frozenset[str]] = {
        i: h.super_interfaces(i) for i in interfaces
    }
    for c in classes:  # a class comes after its parent
        own = frozenset((c,)) | h.interfaces_of_class(c)
        supers[c] = own if parent[c] is None else supers[parent[c]] | own

    alloc_counts: dict[str, int] = {}
    for c in classes:
        n = rng.randint(*p.allocs_per_class)
        if p.pad_chunk is not None:
            cb = p.pad_chunk
            if c == "Object":
                # root's own block ends one short of a chunk boundary so every
                # later interval starts and ends on chunk boundaries
                n += (cb - 1 - n) % cb
            else:
                n += (-n) % cb
        alloc_counts[c] = n

    allocs: list[tuple[str, str]] = []
    for c in classes:
        for _ in range(alloc_counts[c]):
            allocs.append((f"o{len(allocs) + 1}", c))

    field_names = [f"f{i}" for i in range(1, p.num_fields + 1)]
    field_types = {f: rng.choice(classes) for f in field_names}

    var_pool = classes + interfaces
    var_types: dict[str, str] = {"v1": "Object"}  # guaranteed universal sink
    for i in range(2, p.num_vars + 1):
        var_types[f"v{i}"] = rng.choice(var_pool)
    var_names = list(var_types)

    # vars whose declared type can hold a value of type t
    holders: dict[str, list[str]] = {}
    for t in classes:
        holders[t] = [v for v in var_names if var_types[v] in supers[t]]
    # vars whose declared type is a subtype of t (sources for dst of type t)
    src_cache = {
        t: [v for v in var_names if t in supers[var_types[v]]] for t in var_pool
    }

    decls = PAG(
        var_types=var_types,
        field_types=field_types,
        allocs={oid: AllocSite(oid, c) for oid, c in allocs},
        class_decls=class_decls,
        iface_decls=iface_decls,
    )
    lines: list[str] = [
        f"# synthetic corpus (seed {seed})",
        f"# classes={p.num_classes} interfaces={p.num_interfaces} "
        f"vars={p.num_vars} statements={p.num_statements}",
        format_program(decls).rstrip("\n"),
    ]

    sl = p.store_load_ratio
    weights = [(1 - sl) * 0.5, (1 - sl) * 0.5, sl * 0.5, sl * 0.5]
    kinds = ["new", "assign", "store", "load"]
    has_fields = bool(field_names) and bool(allocs)

    for _ in range(p.num_statements):
        kind = rng.choices(kinds, weights)[0]
        if not allocs and kind == "new":
            kind = "assign"
        if not has_fields and kind in ("store", "load"):
            kind = "assign"
        violate = rng.random() < p.violation_rate
        if kind == "new":
            oid, c = rng.choice(allocs)
            v = rng.choice(var_names) if violate else rng.choice(holders[c] or ["v1"])
            lines.append(f"new {v} {oid}")
        elif kind == "assign":
            dst = rng.choice(var_names)
            pool = var_names if violate else (src_cache[var_types[dst]] or [dst])
            src = rng.choice(pool)
            lines.append(f"assign {dst} {src}")
        elif kind == "store":
            f = rng.choice(field_names)
            base = rng.choice(var_names)
            pool = var_names if violate else (src_cache[field_types[f]] or ["v1"])
            src = rng.choice(pool)
            lines.append(f"store {base} {f} {src}")
        else:
            f = rng.choice(field_names)
            base = rng.choice(var_names)
            ft = field_types[f]
            pool = var_names if violate else (holders[ft] or ["v1"])
            dst = rng.choice(pool)
            lines.append(f"load {dst} {base} {f}")

    return "\n".join(lines) + "\n"
