"""Diagrams of pairs in the style of Nori, and the representation they
carry through simplicial homology.

The vertices of the diagram are (pair, degree) for degrees inside a finite
window; arrows come from the listed maps of pairs (degreewise) and from the
listed triples Z <= Y <= X (a boundary arrow (X,Y,i) -> (Y,Z,i-1) for each
positive degree).  Homology of each pair populates the fibers, induced
chain maps and connecting homomorphisms populate the arrow matrices, and
the long exact sequence of any triple can be checked degreewise against
the resulting representation.
"""

from .errors import EngineError
from .linalg import ConcreteMatrix
from .quivers import Quiver
from .representations import Representation
from .simplicial import (RelativeHomology, SimplicialPair,
                         chain_map_matrix, connecting_chain)
from .subobjects import SubobjectData


class PairsCategoryData:
    """Named pairs, maps of pairs, and triples of nested complexes."""

    def __init__(self, pairs, maps, triples):
        self.pairs = [(str(name), pair) for name, pair in pairs]
        self.maps = [(str(name), smap) for name, smap in maps]
        self.triples = [(str(name), triple) for name, triple in triples]
        names = [n for n, _ in self.pairs]
        if len(set(names)) != len(names):
            raise EngineError("duplicate pair names")
        for name, smap in self.maps:
            if self.pair_name(smap.source) is None:
                raise EngineError("map %s: source pair not listed" % name)
            if self.pair_name(smap.target) is None:
                raise EngineError("map %s: target pair not listed" % name)
        for name, (x, y, z) in self.triples:
            if not (x.contains(y) and y.contains(z)):
                raise EngineError("triple %s is not nested" % name)

    def pair_name(self, pair):
        for name, candidate in self.pairs:
            if candidate == pair:
                return name
        return None

    def pair_by_name(self, name):
        for candidate_name, pair in self.pairs:
            if candidate_name == name:
                return pair
        raise EngineError("unknown pair %r" % name)

    def triple_by_name(self, name):
        for candidate_name, triple in self.triples:
            if candidate_name == name:
                return triple
        raise EngineError("unknown triple %r" % name)

    def triple_pairs(self, name):
        """The three pairs (X,Y), (X,Z), (Y,Z) of a triple, by name."""
        x, y, z = self.triple_by_name(name)
        xy = SimplicialPair(x, y)
        xz = SimplicialPair(x, z)
        yz = SimplicialPair(y, z)
        out = []
        for pair in (xy, xz, yz):
            pname = self.pair_name(pair)
            if pname is None:
                raise EngineError("triple %s: pair not listed in the data"
                                  % name)
            out.append((pname, pair))
        return out

    def find_identity_map(self, source_pair, target_pair):
        for name, smap in self.maps:
            if (smap.source == source_pair and smap.target == target_pair
                    and smap.is_identity_inclusion()):
                return name, smap
        raise EngineError("no identity inclusion between the required pairs")

    def __eq__(self, other):
        return (isinstance(other, PairsCategoryData)
                and self.pairs == other.pairs and self.maps == other.maps
                and self.triples == other.triples)

    def __hash__(self):
        return hash((tuple(self.pairs), tuple(self.maps),
                     tuple(self.triples)))


class NoriDiagram:
    """The quiver of (pair, degree) vertices with tagged arrows."""

    def __init__(self, quiver, vertex_info, arrow_info, dmax):
        self.quiver = quiver
        self.vertex_info = vertex_info
        self.arrow_info = arrow_info
        self.dmax = dmax

    def vertex(self, pair_name, degree):
        return "%s_h%d" % (pair_name, degree)

    def __repr__(self):
        return "NoriDiagram(%d vertices, %d arrows, dmax=%d)" % (
            len(self.quiver.vertices), len(self.quiver.arrows), self.dmax)


def build_nori_diagram(data, dmax):
    """Vertices (pair, i) for 0 <= i <= dmax; one arrow per (map, degree)
    and one boundary arrow per (triple, positive degree)."""
    if dmax < 0:
        raise EngineError("dmax must be nonnegative")
    vertices = []
    vertex_info = {}
    for name, _ in data.pairs:
        for i in range(dmax + 1):
            vname = "%s_h%d" % (name, i)
            vertices.append(vname)
            vertex_info[vname] = (name, i)
    arrows = []
    arrow_info = {}
    for name, smap in data.maps:
        src_pair = data.pair_name(smap.source)
        tgt_pair = data.pair_name(smap.target)
        for i in range(dmax + 1):
            aname = "%s_h%d" % (name, i)
            arrows.append((aname, "%s_h%d" % (src_pair, i),
                           "%s_h%d" % (tgt_pair, i)))
            arrow_info[aname] = ("map", name, i)
    for name, _ in data.triples:
        (xy_name, _), (_, _), (yz_name, _) = data.triple_pairs(name)
        for i in range(1, dmax + 1):
            aname = "%s_h%d" % (name, i)
            arrows.append((aname, "%s_h%d" % (xy_name, i),
                           "%s_h%d" % (yz_name, i - 1)))
            arrow_info[aname] = ("boundary", name, i)
    quiver = Quiver(vertices, arrows)
    return NoriDiagram(quiver, vertex_info, arrow_info, dmax)


def homology_representation(data, diagram, ring):
    """Fibers H_i(X, Y), induced maps on homology, and connecting maps."""
    homology = {}
    for name, pair in data.pairs:
        for i in range(diagram.dmax + 1):
            homology[(name, i)] = RelativeHomology(pair, i, ring)
    fibers = {}
    for vname, (pair_name, i) in diagram.vertex_info.items():
        fibers[vname] = homology[(pair_name, i)].fiber()
    matrices = {}
    for aname, info in diagram.arrow_info.items():
        kind, name, degree = info
        if kind == "map":
            smap = dict(data.maps)[name]
            src = homology[(data.pair_name(smap.source), degree)]
            tgt = homology[(data.pair_name(smap.target), degree)]
            chain = chain_map_matrix(smap, degree, ring)
            cols = [tgt.class_of_chain(chain.apply(gen))
                    for gen in src.generator_chains()]
        else:
            (xy_name, xy), (_, _), (yz_name, yz) = data.triple_pairs(name)
            src = homology[(xy_name, degree)]
            tgt = homology[(yz_name, degree - 1)]
            cols = [tgt.class_of_chain(connecting_chain(ring, xy, yz, gen,
                                                        degree))
                    for gen in src.generator_chains()]
        matrices[aname] = ConcreteMatrix.from_columns(
            ring, cols, tgt.dim)
    return Representation(diagram.quiver, ring, fibers, matrices)


def check_les_exactness(representation, data, diagram, triple_name,
                        degrees):
    """Exactness of ... -> H_i(Y,Z) -> H_i(X,Z) -> H_i(X,Y) -> H_{i-1}(Y,Z)
    -> ... at every slot whose incoming and outgoing maps both lie in the
    degree window; groups outside the window are treated as zero, so the
    verdict is relative to the window."""
    (xy_name, xy), (xz_name, xz), (yz_name, yz) = \
        data.triple_pairs(triple_name)
    incl_name, _ = data.find_identity_map(yz, xz)
    quot_name, _ = data.find_identity_map(xz, xy)
    dmax = diagram.dmax

    def ambient(pair_name, i):
        if i < 0 or i > dmax:
            return None
        vertex = diagram.vertex(pair_name, i)
        return representation.ambient((vertex,))

    def matrix(kind_name, i):
        if i < 0 or i > dmax:
            return None
        return representation.arrow_matrix("%s_h%d" % (kind_name, i))

    def exact_at(mid, incoming, outgoing, out):
        """Image of the incoming map equals the kernel of the outgoing one
        inside the middle group; a missing map is zero."""
        if mid is None:
            return True
        image = mid.zero_subobject()
        if incoming is not None:
            image = SubobjectData(mid, incoming.transpose().entries)
        kernel = mid.full()
        if outgoing is not None:
            kernel = mid.kernel(outgoing, out)
        return image == kernel

    ok = True
    for i in degrees:
        if i < 0 or i > dmax:
            continue
        # at H_i(X, Z): in = incl_i, out = quot_i
        ok = ok and exact_at(ambient(xz_name, i), matrix(incl_name, i),
                             matrix(quot_name, i), ambient(xy_name, i))
        # at H_i(X, Y): in = quot_i, out = boundary_i
        boundary_out = matrix(triple_name, i) if i >= 1 else None
        ok = ok and exact_at(ambient(xy_name, i), matrix(quot_name, i),
                             boundary_out, ambient(yz_name, i - 1))
        # at H_i(Y, Z): in = boundary_{i+1}, out = incl_i
        boundary_in = matrix(triple_name, i + 1)
        ok = ok and exact_at(ambient(yz_name, i), boundary_in,
                             matrix(incl_name, i), ambient(xz_name, i))
        if not ok:
            return False
    return ok
