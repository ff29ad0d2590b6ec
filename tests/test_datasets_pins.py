"""Byte pins for the synthetic dataset generators.

The generators are pure functions of (parameters, seed), and the order in
which they draw from the RNG is part of their output format: every
partitioner, metric, benchmark pin and stored artifact downstream reads
these exact bytes.  Each pin is the SHA-256 of ``src``, ``dst`` and
``vertex_ids`` (native int64 bytes, concatenated) plus the arc count, so
an optimisation of a generator must reproduce its output byte for byte.
"""

import hashlib

import pytest

from repro.datasets.catalog import load_dataset
from repro.datasets.generators import social_graph


def _digest(graph) -> str:
    payload = graph.src.tobytes() + graph.dst.tobytes() + graph.vertex_ids.tobytes()
    return hashlib.sha256(payload).hexdigest()


#: (dataset, scale, seed) -> (num_edges, sha256)
CATALOG_PINS = {
    ("roadnet-pa", 0.3, 17): (676, "e715dbe27f50f89d53d06f7089ddb243768d4778478e9185d3c9665682d49007"),
    ("youtube", 0.3, 17): (1058, "21ca4df4395aaf19db4225cd815d2e7b595d0a351fdf8f83a51db15648e7e297"),
    ("roadnet-tx", 0.3, 17): (904, "2395b35ff560f96fc90f9163817d04f3a91c65a3f50a8ccf64da20d0ecc9a5b7"),
    ("pokec", 0.3, 17): (4510, "063cac7e14d3e677c4b877439f0dd64ffd15628380ac7e3ca0e7734c6159b293"),
    ("roadnet-ca", 0.3, 17): (1090, "a470435e20df14e70ae850b33d75a3d5e59bac1cc8281219bd4e3ef26bcd4922"),
    ("orkut", 0.3, 17): (11684, "bf426417b3de60d57e6966de09f768dfa72bc22b646b7c5bf6e35b9d502bdeb3"),
    ("soclivejournal", 0.3, 17): (7734, "b450372d585e85ce1e84021d1b7e1fa51e41873ca50582f9c7a550b905e82b46"),
    ("follow-jul", 0.3, 17): (10442, "8330b3e53e66331da7ea8a320ba8b649c461f98efbc0f659750f5a4d872f7a55"),
    ("follow-dec", 0.3, 17): (14586, "e3c7e4d4ad6fa0e390df3e34154e2547ae524f92f4fe3ce68ad27fec83a4d4ed"),
    ("roadnet-pa", 1.0, 17): (2212, "3cce0f04583afb6a2e9fda7c1e5b00c9ffdc2c5024c6a2963bbc3e226fbb3d81"),
    ("youtube", 1.0, 17): (3560, "f493ed625077cffdac268690df41f945676108c6ffdbcc09940cfdc714923cd9"),
    ("roadnet-tx", 1.0, 17): (2948, "512e58784e8c22a6442557a8ca48badccea1cfe29377cd15270005427b5250b6"),
    ("pokec", 1.0, 17): (15070, "7cf2bd8ec3e4ae2ecba0b166ea513fd9ab40e9000d45e7d0191b3df9124887e5"),
    ("roadnet-ca", 1.0, 17): (4150, "bb074eaef9a12fad5974f7d4f67149be881d764dcee14debbb28e986d21c469a"),
    ("orkut", 1.0, 17): (39116, "2cf3d3ccebc52a09c9d21f59cf46a448fdfbb5f126538e3ea2491c84988274a4"),
    ("soclivejournal", 1.0, 17): (25795, "ae1c61a871c58e8dacc141d5c6507fa1d3c372a8cc539574447d0829479a1a55"),
    ("follow-jul", 1.0, 17): (34857, "0630923d1ee5325513943234defd20650ac2fe01c4df56a67994f713f6c2dfca"),
    ("follow-dec", 1.0, 17): (48700, "ca0fc376699f3a1d3470ff927298b2eabc1ba6eeaddabbb2a5db0aaa77ea6733"),
    ("roadnet-pa", 0.3, 0): (676, "119c53471bba8b4b3bb86932c5a5533a5d32b23e42dd1291022510f577816a6a"),
    ("youtube", 0.3, 0): (1062, "02d860bb5583727990940e0e5373fdfa964fb06e24af389256a75e0200bb7305"),
    ("roadnet-tx", 0.3, 0): (904, "d7c08c635d87e53d3c62ba3085eda0fd7194f6496bef06a326188ab48a414437"),
    ("pokec", 0.3, 0): (4503, "c20f16153b3110103cca3baea45575a4e781b1e3309e88501b89ed62ff4a5689"),
    ("roadnet-ca", 0.3, 0): (1090, "c1edb9dbee6747f60fc7f8fba564ecaf6f7c7b1fa8cf269bc823a1680b3c488f"),
    ("orkut", 0.3, 0): (11692, "d23372cd7a621faad70f3661c08c3aad345c6eda06c247bbe4da73135a992be6"),
    ("soclivejournal", 0.3, 0): (7713, "6741183b5b8805cab825bac1bab6ef4c98199a0c83a02962ca1178f208598d19"),
    ("follow-jul", 0.3, 0): (10461, "03475123051a6b6cf47c796866fa216c7a86f674020b0fc2ae7634d1dc0786d0"),
    ("follow-dec", 0.3, 0): (14592, "0404f9a098bad9ad2054d441806e693c8f635d96da40af3c27c2e91c97b6e778"),
}

#: Direct calls that reach branches no catalog recipe takes.
DIRECT_CALLS = {
    "unshuffled": dict(
        num_vertices=300,
        num_edges=1500,
        reciprocity=0.5,
        zero_in_fraction=0.1,
        zero_out_fraction=0.1,
        shuffle_ids=False,
        seed=3,
    ),
    "disconnected": dict(num_vertices=300, num_edges=1500, triadic_closure=0.6, connect=False, seed=4),
    # 9 three-vertex satellites leave too few main vertices: size drops to 2.
    "two_vertex_satellites": dict(num_vertices=40, num_edges=120, num_components=10, seed=5),
    # Even two-vertex satellites do not fit: their count shrinks too.
    "shrunk_satellite_count": dict(num_vertices=40, num_edges=120, num_components=30, seed=6),
}

#: label -> (num_edges, sha256)
DIRECT_PINS = {
    "unshuffled": (1872, "de85064db163df14b007edd5bcf01faf6aded25af86014d4f19c819aa4107b90"),
    "disconnected": (1501, "d7ac5ef6b4e53828b6fe26aedb8632c94d86d7042f1c751e74bbf1743628ccbd"),
    "two_vertex_satellites": (155, "325bc9d7b3075377497ec41a1cf74f2f78ad51a8be09dc66b99f6e0eff8ca75c"),
    "shrunk_satellite_count": (163, "74a7504bdcdd72fe069ecfb49c74371bd20adf0703e1ac63ccd533d53186cdc6"),
}


@pytest.mark.parametrize(("name", "scale", "seed"), sorted(CATALOG_PINS))
def test_catalog_dataset_bytes(name, scale, seed):
    graph = load_dataset(name, scale=scale, seed=seed)
    assert (graph.num_edges, _digest(graph)) == CATALOG_PINS[name, scale, seed]


@pytest.mark.parametrize("label", sorted(DIRECT_CALLS))
def test_direct_social_graph_bytes(label):
    graph = social_graph(**DIRECT_CALLS[label])
    assert (graph.num_edges, _digest(graph)) == DIRECT_PINS[label]
