"""Spans around calls into the program's layers, recorded from outside.

A span is (name, parent, start, end).  Wrappers are installed on every
module's binding of a wrapped function, because modules import names such
as ``field_kernel`` into their own namespace, and on the class for a
method.  Spans stay in memory in flat arrays until the run ends.  A span's
self time is its duration minus the durations of its children; calls are
nested and single-threaded, so children never overlap.
"""

import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a name.
TARGETS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "field_kernel", "linalg.field_kernel"),
    ("linalg", "field_solve", "linalg.field_solve"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("linalg", "hermite_normal_form", "linalg.hermite_normal_form"),
    ("linalg", "integer_kernel", "linalg.integer_kernel"),
    ("linalg", "integer_solve", "linalg.integer_solve"),
    ("linalg", "lattice_member", "linalg.lattice"),
    ("linalg", "lattice_coordinates", "linalg.lattice"),
    ("linalg", "ConcreteMatrix.mul", "linalg.ConcreteMatrix.mul"),
    ("subobjects", "SubobjectData.__init__", "subobjects.SubobjectData"),
    ("subobjects", "SubobjectData.contains", "subobjects.contains"),
    ("subobjects", "SubobjectData.quotient_by", "subobjects.quotient_by"),
    ("subobjects", "QuotientPresentation.__init__",
     "subobjects.QuotientPresentation"),
    ("subobjects", "QuotientPresentation.class_vector",
     "subobjects.class_vector"),
    ("subobjects", "invariants_of_presentation", "subobjects.invariants"),
    ("quivers", "path_basis", "quivers.path_basis"),
    ("quivers", "AlgebraElement.multiply", "quivers.AlgebraElement.multiply"),
    ("quivers", "TypedMatrix.mul", "quivers.TypedMatrix.mul"),
    ("representations", "Representation.__init__",
     "representations.Representation"),
    ("representations", "Representation.evaluate_path",
     "representations.evaluate_path"),
    ("representations", "Representation.evaluate_element",
     "representations.evaluate_element"),
    ("representations", "Representation.evaluate_typed_matrix",
     "representations.evaluate_typed_matrix"),
    ("fpmodules", "UnderlyingData.__init__", "fpmodules.UnderlyingData"),
    ("fpmodules", "hom_basis", "fpmodules.hom_basis"),
    ("fpmodules", "element_satisfies", "fpmodules.element_satisfies"),
    ("fpmodules", "free_realization", "fpmodules.free_realization"),
    ("formulas", "evaluate", "formulas.evaluate"),
    ("formulas", "conjoin", "formulas.construct"),
    ("formulas", "lift", "formulas.construct"),
    ("formulas", "project", "formulas.construct"),
    ("formulas", "sum_formula", "formulas.construct"),
    ("formulas", "implies_all", "formulas.implies_all"),
    ("formulas", "pair_value", "formulas.pair_value"),
    ("dsl", "parse_formula", "dsl.parse_formula"),
    ("abcat", "check_morphism", "abcat.check_morphism"),
    ("abcat", "evaluate_morphism", "abcat.evaluate_morphism"),
    ("abcat", "evaluate_object", "abcat.evaluate_object"),
    ("abcat", "equal_in_quotient", "abcat.equal_in_quotient"),
    ("abcat", "SerreKernelOracle.membership",
     "abcat.SerreKernelOracle.membership"),
    ("abcat", "object_from_presentation", "abcat.construct"),
    ("abcat", "direct_sum", "abcat.construct"),
    ("abcat", "DiagramEmbedding.object", "abcat.construct"),
    ("simplicial", "RelativeHomology.__init__", "simplicial.RelativeHomology"),
    ("simplicial", "RelativeHomology.fiber", "simplicial.fiber"),
    ("simplicial", "boundary_matrix", "simplicial.boundary_matrix"),
    ("simplicial", "chain_map_matrix", "simplicial.chain_map_matrix"),
    ("simplicial", "connecting_chain", "simplicial.connecting_chain"),
    ("nori", "build_nori_diagram", "nori.build_nori_diagram"),
    ("nori", "homology_representation", "nori.homology_representation"),
    ("nori", "check_les_exactness", "nori.check_les_exactness"),
    ("formats", "parse_quiver", "formats.parse"),
    ("formats", "parse_representation", "formats.parse"),
    ("formats", "parse_pair_list", "formats.parse"),
    ("formats", "parse_pairs_category", "formats.parse"),
)

INTEGER_LINALG = ("linalg.smith_normal_form", "linalg.hermite_normal_form",
                  "linalg.integer_kernel", "linalg.integer_solve",
                  "linalg.lattice")
FIELD_LINALG = ("linalg.rref", "linalg.field_kernel", "linalg.field_solve")


class Tracer:
    """Installs the wrappers and keeps the spans and counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct = {}          # span name -> set of input keys
        self._alive = {}            # keeps keyed objects from reuse of ids
        self.max_entry_bits = 0
        self._saved = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        """Start a span by hand (the per-operation root spans)."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, orig, span, key=None, post=None):
        nid = self.name_id(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack

        def wrapper(*args, **kwargs):
            if key is not None:
                key(args)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(perf_counter())
            end.append(0.0)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", span)
        return wrapper

    # -- counters on inputs and outputs -------------------------------------

    def _keyer(self, span, make_key):
        seen = self.distinct.setdefault(span, set())

        def key(args):
            seen.add(make_key(args))
        return key

    def _keep(self, obj):
        self._alive[id(obj)] = obj
        return id(obj)

    def _snf_bits(self, result):
        bits = self.max_entry_bits
        for mat in result:
            for row in mat.entries:
                for x in row:
                    b = abs(x).bit_length()
                    if b > bits:
                        bits = b
        self.max_entry_bits = bits

    def _hooks(self, span):
        if span == "linalg.smith_normal_form":
            return (self._keyer(span, lambda a: a[0].entries),
                    self._snf_bits)
        if span == "representations.evaluate_path":
            return self._keyer(span, lambda a: (self._keep(a[0]), a[1])), None
        if span == "quivers.path_basis":
            return (self._keyer(span, lambda a: (self._keep(a[0]), a[1],
                                                 a[2])), None)
        if span == "fpmodules.UnderlyingData":
            return self._keyer(span, lambda a: a[1]), None
        return None, None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; idempotent per installation."""
        import abquiver
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "abquiver"
                                         or n.startswith("abquiver.")
                                         or n.startswith("abqbench."))]
        for mod_name, attr, span in TARGETS:
            owner = getattr(abquiver, mod_name)
            key, post = self._hooks(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, span, key, post))
                self._saved.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span, key, post)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._saved.append((mod, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its children."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def roots(self, prefix):
        """Indices of the root spans whose name starts with prefix."""
        ids = {i for i, n in enumerate(self.names) if n.startswith(prefix)}
        return [i for i in range(len(self.name))
                if self.parent[i] < 0 and self.name[i] in ids]

    def write(self, path):
        with open(path, "w") as out:
            out.write("span\tname\tparent\tstart\tend\n")
            names = self.names
            for i in range(len(self.name)):
                out.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    i, names[self.name[i]], self.parent[i], self.start[i],
                    self.end[i]))
