"""Bipartite user-item rating graphs for Collaborative Filtering.

Paper Section 3.2: "Inputs for Collaborative Filtering are weighted
graphs, where source vertices of edges are users, target vertices are
items ... the weight of an edge represents the rating ... we assume the
number of items is equal to the number of users."

Vertices ``0..n_users-1`` are users and ``n_users..n_users+n_items-1``
are items. Both the user activity (ratings per user) and the item
popularity follow the same power-law exponent ``α`` so CF structure
reacts to the α sweep like the GA graphs do. Ratings are Gaussian
(paper: "edge weights are generated randomly in Gaussian distribution"),
clipped to the conventional 1–5 star range.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.generators.pairs import distinct_pairs
from repro.generators.powerlaw import _truncated_power_law
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng
from repro.graph.csr import Graph

#: Gaussian rating parameters (mean star rating and spread).
RATING_MEAN = 3.5
RATING_STD = 1.0
RATING_RANGE = (1.0, 5.0)


def bipartite_rating_graph(
    nedges: int,
    alpha: float,
    *,
    seed: int = 0,
) -> ProblemInstance:
    """Generate a user-item rating graph with ``~nedges`` ratings.

    Returns a :class:`ProblemInstance` with domain ``"cf"`` and inputs:

    - ``n_users``, ``n_items`` — the bipartition sizes (equal);
    - ``is_user`` — boolean mask over vertices;
    - ratings are the graph's ``edge_weight``.
    """
    if nedges < 1:
        raise ValidationError("nedges must be >= 1")
    if alpha <= 1.0:
        raise ValidationError("alpha must exceed 1.0")

    k_max = max(2, int(round(nedges ** 0.5)))
    ks, pmf = _truncated_power_law(alpha, k_max)
    mean_k = float((ks * pmf).sum())
    # Each rating contributes degree 1 to one user and one item.
    n_users = max(2, int(round(nedges / mean_k)))
    n_items = n_users
    n = n_users + n_items

    rng_u = make_rng(seed, "bipartite", "user-weights")
    rng_i = make_rng(seed, "bipartite", "item-weights")
    rng_pair = make_rng(seed, "bipartite", "pairing")
    rng_rate = make_rng(seed, "bipartite", "ratings")

    user_w = rng_u.choice(ks, size=n_users, p=pmf).astype(np.float64)
    item_w = rng_i.choice(ks, size=n_items, p=pmf).astype(np.float64)
    user_p = user_w / user_w.sum()
    item_p = item_w / item_w.sum()

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng_pair.choice(n_users, size=batch, p=user_p).astype(np.int64)
        it = rng_pair.choice(n_items, size=batch, p=item_p).astype(np.int64)
        return u, it

    src, items = distinct_pairs(draw, nedges, n_items)
    dst = items + n_users
    ratings = np.clip(
        rng_rate.normal(RATING_MEAN, RATING_STD, size=src.size),
        *RATING_RANGE,
    )

    # CF algorithms traverse ratings in both directions (users gather
    # from items and vice versa), so the rating graph is undirected.
    graph = Graph.from_edges(
        n, src, dst,
        weight=ratings,
        directed=False,
        dedup=False,
        drop_self_loops=False,
        meta={"generator": "bipartite", "nedges": nedges, "alpha": alpha,
              "seed": seed, "n_users": n_users, "n_items": n_items},
    )
    is_user = np.zeros(n, dtype=bool)
    is_user[:n_users] = True
    return ProblemInstance(
        graph=graph,
        domain="cf",
        inputs={"n_users": n_users, "n_items": n_items, "is_user": is_user},
        params={"nedges": nedges, "alpha": alpha, "seed": seed},
    )
