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
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

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
    type_lines: dict[str, int] = {}  # class, interface, first array mention -> line
    stmt_lines: list[int] = []  # parallel to statements for late diagnostics
    statements: list[tuple] = []

    def declare_name(name: str, what: str, line: int):
        if name in decl_lines:
            raise DuplicateNameError(f"line {line}: duplicate {what} name {name!r}")
        decl_lines[name] = line

    def note_type(name: str, line: int):
        if name.endswith("[]"):
            type_lines.setdefault(name, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if name in type_lines:
                raise DuplicateNameError(f"line {lineno}: duplicate type {name!r}")
            type_lines[name] = lineno
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
            if name in type_lines:
                raise DuplicateNameError(f"line {lineno}: duplicate type {name!r}")
            type_lines[name] = lineno
            pag.iface_decls.append((name, exts))
        elif directive in ("field", "var", "alloc"):
            if len(toks) != 4 or toks[2] != ":":
                raise FactSyntaxError(f"malformed {directive} declaration", lineno)
            name = _check_ident(toks[1], lineno, bare=True)
            tname = _check_ident(toks[3], lineno)
            note_type(tname, lineno)
            declare_name(name, directive, lineno)
            if directive == "field":
                pag.field_types[name] = tname
            elif directive == "var":
                pag.var_types[name] = tname
            else:
                pag.allocs[name] = AllocSite(id=name, type_name=tname)
        elif directive == "new":
            if len(toks) != 3:
                raise FactSyntaxError("expected: new <var> <allocId>", lineno)
            statements.append(("new", toks[1], toks[2]))
            stmt_lines.append(lineno)
        elif directive == "assign":
            if len(toks) != 3:
                raise FactSyntaxError("expected: assign <dst> <src>", lineno)
            statements.append(("assign", toks[1], toks[2]))
            stmt_lines.append(lineno)
        elif directive == "store":
            if len(toks) != 4:
                raise FactSyntaxError("expected: store <base> <field> <src>", lineno)
            statements.append(("store", toks[1], toks[2], toks[3]))
            stmt_lines.append(lineno)
        elif directive == "load":
            if len(toks) != 4:
                raise FactSyntaxError("expected: load <dst> <base> <field>", lineno)
            statements.append(("load", toks[1], toks[2], toks[3]))
            stmt_lines.append(lineno)
        else:
            raise FactSyntaxError(f"unknown directive {directive!r}", lineno)

    arrays = [t for t in type_lines if t.endswith("[]")]
    try:
        h = build_hierarchy(pag.class_decls, pag.iface_decls, array_types=arrays)
    except DeclError as e:
        # with no class declared at all, a missing root is reported at line 1
        raise type(e)(f"line {type_lines.get(e.decl, 1)}: {e}") from None

    for name, tname in pag.var_types.items():
        if not h.is_declared(tname):
            raise UnknownTypeError(
                f"line {decl_lines[name]}: var {name}: unknown type {tname}"
            )
    for name, tname in pag.field_types.items():
        if not h.is_declared(tname):
            raise UnknownTypeError(
                f"line {decl_lines[name]}: field {name}: unknown type {tname}"
            )
    for a in pag.allocs.values():
        if not h.is_declared(a.type_name):
            problem = f"unknown type {a.type_name}"
        elif not h.lookup(a.type_name).is_classlike:
            problem = f"allocated type {a.type_name} is an interface"
        else:
            continue
        raise UnknownTypeError(f"line {decl_lines[a.id]}: alloc {a.id}: {problem}")

    def need_var(name: str, line: int):
        if name not in pag.var_types:
            raise UndeclaredVariableError(f"line {line}: undeclared variable {name!r}")

    def need_field(name: str, line: int):
        if name not in pag.field_types:
            raise UndeclaredVariableError(f"line {line}: undeclared field {name!r}")

    for stmt, line in zip(statements, stmt_lines):
        if stmt[0] == "new":
            _, v, o = stmt
            need_var(v, line)
            if o not in pag.allocs:
                raise UndeclaredVariableError(f"line {line}: undeclared alloc {o!r}")
            pag.alloc_edges.append((o, v))
        elif stmt[0] == "assign":
            _, dst, src = stmt
            need_var(dst, line)
            need_var(src, line)
            pag.assign_edges.append((dst, src))
        elif stmt[0] == "store":
            _, base, f, src = stmt
            need_var(base, line)
            need_field(f, line)
            need_var(src, line)
            pag.store_edges.append((base, f, src))
        else:
            _, dst, base, f = stmt
            need_var(dst, line)
            need_var(base, line)
            need_field(f, line)
            pag.load_edges.append((dst, base, f))

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

    def validate(self):
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
        if self.pad_chunk is not None and self.pad_chunk not in (8, 16, 32, 64):
            raise InvalidParamsError("pad_chunk must be one of 8/16/32/64")


def generate_synthetic(params: GenParams, seed: int) -> str:
    """Deterministic synthetic corpus; a pure function of (params, seed).

    Assignments are type-directed (source type a subtype of the destination
    type) except for a configurable violation fraction that exercises type
    filtering.
    """
    params.validate()
    rng = random.Random(seed)
    p = params

    classes = ["Object"] + [f"C{i}" for i in range(1, p.num_classes)]
    depth = {"Object": 0}
    parent: dict[str, str | None] = {"Object": None}
    for c in classes[1:]:
        candidates = [x for x in classes if x in depth and depth[x] < p.max_depth - 1]
        par = rng.choice(candidates)
        parent[c] = par
        depth[c] = depth[par] + 1

    interfaces = [f"I{i}" for i in range(1, p.num_interfaces + 1)]
    iface_exts: dict[str, tuple[str, ...]] = {}
    for i, name in enumerate(interfaces):
        if i > 0 and rng.random() < 0.3:
            iface_exts[name] = (rng.choice(interfaces[:i]),)
        else:
            iface_exts[name] = ()

    implements: dict[str, tuple[str, ...]] = {}
    for c in classes:
        if interfaces and c != "Object" and rng.random() < 0.3:
            implements[c] = (rng.choice(interfaces),)
        else:
            implements[c] = ()

    # subtype closure over the generated tree, for type-directed statements
    chain: dict[str, list[str]] = {}
    for c in classes:
        anc = []
        cur: str | None = c
        while cur is not None:
            anc.append(cur)
            cur = parent[cur]
        chain[c] = anc
    iface_sup: dict[str, set[str]] = {}
    for i in interfaces:
        seen = {i}
        work = [i]
        while work:
            for s in iface_exts[work.pop()]:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        iface_sup[i] = seen
    supers: dict[str, set[str]] = {}  # class -> all supertypes incl. interfaces
    for c in classes:
        sup = set(chain[c])
        for a in chain[c]:
            for i in implements[a]:
                sup |= iface_sup[i]
        supers[c] = sup

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
    def sources_for(tname: str) -> list[str]:
        out = []
        for v in var_names:
            vt = var_types[v]
            if vt in classes:
                if tname in supers[vt]:
                    out.append(v)
            else:  # interface-typed var
                if tname in iface_sup.get(vt, ()) or tname == vt:
                    out.append(v)
        return out

    src_cache = {t: sources_for(t) for t in var_pool}

    lines: list[str] = [
        f"# synthetic corpus (seed {seed})",
        f"# classes={p.num_classes} interfaces={p.num_interfaces} "
        f"vars={p.num_vars} statements={p.num_statements}",
    ]
    for c in classes:
        line = f"class {c}"
        if parent[c] is not None:
            line += f" extends {parent[c]}"
        if implements[c]:
            line += " implements " + ",".join(implements[c])
        lines.append(line)
    for i in interfaces:
        line = f"interface {i}"
        if iface_exts[i]:
            line += " extends " + ",".join(iface_exts[i])
        lines.append(line)
    for f in field_names:
        lines.append(f"field {f} : {field_types[f]}")
    for v in var_names:
        lines.append(f"var {v} : {var_types[v]}")
    for oid, c in allocs:
        lines.append(f"alloc {oid} : {c}")

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
