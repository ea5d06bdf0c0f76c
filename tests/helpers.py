"""Small hand-built games shared across test modules."""

from netalloc.game import Behavior, FrequencyProfile, GameSpec
from netalloc.instances import EdgeSpec, InstanceDocument
from netalloc.utility import UtilitySpec

PESS = Behavior.PESSIMISTIC
OPT = Behavior.OPTIMISTIC


def make_spec(
    n,
    eta,
    edge_data,
    budgets,
    behaviors=None,
):
    """edge_data: list of (i, j, w_ij, w_ji, u_ij, u_ji); budgets in resource
    units; behaviors defaults to all pessimistic."""
    edges = [(i, j) for (i, j, *_rest) in edge_data]
    weights = {}
    utilities = {}
    for (i, j, w_ij, w_ji, u_ij, u_ji) in edge_data:
        weights[(i, j)] = w_ij
        weights[(j, i)] = w_ji
        utilities[(i, j)] = u_ij
        utilities[(j, i)] = u_ji
    if behaviors is None:
        behaviors = {i: PESS for i in range(n)}
    return GameSpec.build(
        n=n,
        eta=eta,
        edges=edges,
        weights=weights,
        budgets=dict(enumerate(budgets)),
        utilities=utilities,
        behaviors=behaviors,
    )


def rebuilt(spec, **maps):
    """``spec`` built again from its maps, with the given ones (``weights``,
    ``budgets``, ``utilities`` or ``behaviors``) replaced."""
    given = dict(
        weights=spec.weights,
        budgets=spec.budgets,
        utilities=spec.utilities,
        behaviors=spec.behaviors,
    )
    return GameSpec.build(spec.n, spec.eta, spec.edges, **{**given, **maps})


def single_edge_spec(
    u=None,
    eta=1.0,
    budgets=(5.0, 5.0),
    w=(1.0, 1.0),
    behaviors=None,
):
    u = u or UtilitySpec.sqrt()
    return make_spec(
        2,
        eta,
        [(0, 1, w[0], w[1], u, u)],
        budgets,
        behaviors,
    )


def path3_spec(u=None, eta=0.05, budget=1.0, behaviors=None):
    """0 - 1 - 2 path; middle player splits weight 0.6/0.4."""
    u = u or UtilitySpec.capped_quadratic(1.0)
    return make_spec(
        3,
        eta,
        [
            (0, 1, 1.0, 0.6, u, u),
            (1, 2, 0.4, 1.0, u, u),
        ],
        [budget, budget, budget],
        behaviors,
    )


def triangle_doc(eta=0.05, budget_units=20, u=None):
    u = u or UtilitySpec.capped_quadratic(1.0)
    edges = tuple(
        EdgeSpec(i, j, 0.5, 0.5, u, u) for (i, j) in ((0, 1), (0, 2), (1, 2))
    )
    return InstanceDocument(
        n=3,
        eta=eta,
        budgets=(budget_units,) * 3,
        behaviors=("pessimistic",) * 3,
        edges=edges,
    )


def profile_of(spec, rows):
    """rows: {i: {j: units}}; missing directed edges filled with zero."""
    counts = {e: 0 for e in spec.directed_edges}
    for i, row in rows.items():
        for j, c in row.items():
            counts[(i, j)] = c
    return FrequencyProfile(counts)
