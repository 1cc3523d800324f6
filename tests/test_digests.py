"""Pinned output digests of the command-line chain.

Each instance is generated with `andbox gen`, realized, verified,
converted to corner boxes (and to semi-squares when central), rendered,
and, for the interval and rooted-path models, passed to check-order with
its realization and codes written out.  Every file the chain leaves in
the directory is pinned by its sha256, so any change to a writer, a
construction or the renderer that moves one byte fails here.  The
written realizations of polygons whose faces fold many levels deep or
side by side, and of a chain of such blocks, are pinned the same way.
"""

import hashlib
import os

from andbox import fileio
from andbox.cli import main
from andbox.constructors import blockwise_cand1, outerplanar_cand1, rdp_ordering

from conftest import ear_polygon, ear_polygon_chain, fan_polygon, nested_polygon

# (name, gen arguments, realize input suffix or None for --cycle, central)
CHAINS = [
    ("interval", ["--family", "random-interval", "100", "--seed", "1"], ".iv", True),
    ("dissection", ["--family", "random-dissection", "110", "--seed", "2"], ".op", True),
    ("block", ["--family", "random-block", "220", "--seed", "1"], ".and", True),
    ("rootedpath", ["--family", "random-rooted-path", "220", "--seed", "1"], ".rp", False),
    ("cycle", ["--family", "cycle", "700"], None, True),
]

DIGESTS = {
    "block.and": "78377afd84542741eda6e01558780db96963b8145c1e7bea452fc2aa59a9a593",
    "block.boxes": "59e861a1a616ac57ba133b2e9676bfb857e5e2fdfb2d31da0b79645d12e09962",
    "block.real": "a82ec4159ce27ca21e9a83b53b19fc913e9b2fa6af2868eba23f12885aebbd2a",
    "block.svg": "93646f10169cb6c562974b7830c1b65c1f87946004fc5ca6dbd9f689355905db",
    "block.tri": "54f54739e67318073f1f768cf9626c819521d254e77a63abafeb7c6494a72efd",
    "cycle.and": "f0dc44a43bf42c7768571dbd5c9c41b4c33c86f56e64d9bbf3e3d55060fc4f57",
    "cycle.boxes": "9e6bbb37ce8ffd0e1d433761559d196ad57fbfb175ffc63b8ac9bc2a55cf3346",
    "cycle.real": "4956493f727d98ffb44378125151df567570e017da142cf7d9ad3b96d4074692",
    "cycle.svg": "1e52217f878020c0c17d0197c3e2035aece82df0f16bc7b7f49acf1360df95a9",
    "cycle.tri": "50092f2ee1837befcbc28a10e8c8552d5833e6100de7c2d04eeb8e707bd07376",
    "dissection.and": "143967c2172a0c43236dbaee7fffe0cd8647708face21fec0094144bb48fbae3",
    "dissection.boxes": "b18f2a451c7641318adb20a5b097aa7361cee1ce758521f97ec949ff3f2269c2",
    "dissection.op": "5189c70f1cfc111a14278330afe0344ac397c1f8bb1c7c55bccfe987698b85c7",
    "dissection.real": "99c7ed8e188b65b48e025f8729e5e1b4750334656ba37baa3e6c6b7ecdf36cbc",
    "dissection.svg": "6429fccd249f83cd26f069fa7e3f5b0a6b66d85280a98a119844cba18dad9792",
    "dissection.tri": "5a9bc5b1d5156c382df5b5e7d10a9af997c3e1793d19c4fde0672da8fbc5db24",
    "interval.and": "2a7355cf96359aa1527ab9c0e82cd0aba7ef9a04d08a96ac26c71dd787d7c9dd",
    "interval.boxes": "7c75f23486646f93551cbaab8da598502add501a84ca9bf425f0407e68b725d3",
    "interval.codes": "5450739f8f591a82483b31bea34ad6de4cad5a876f12c4af3ae4c976c3757c2f",
    "interval.iv": "9b19ea340448c0cfaef0027b32c72bd36b94563f750ef69dbf0a586a40bc9952",
    "interval.ord": "723ee8446c4010b6e61acd3ba3720beba467b79efefefb059dafceb781201297",
    "interval.oreal": "fa01c089fb495736b77c352281e08b0b551d4d98a7f57da145d5944e590d0d8b",
    "interval.real": "cf22f6b91aceb1cf4924552d97dc237aef293b1cda9d7217f4f388bbcf5cbc4e",
    "interval.svg": "a05314026fb31e140b49385f4ef5cba0f0f83d708bb1cfc4faf6bdf2a9eed046",
    "interval.tri": "364c1756f50c23bc32d6f62e80a39702718f0e64f4ea630d188bed58f3d805f4",
    "rootedpath.and": "fe8410795d7d9c41f9d98e89df4f253ccbe6ee0b1d13d210bd7bde4680124a46",
    "rootedpath.boxes": "c373bf04644ff001d8f9c38a20a923c6d583d64cb30f192a51b296563eac684a",
    "rootedpath.codes": "f673c1f507df98b53ec4c7c406fa1605e7e1956ec9357b4790f0c6d4fd0960a4",
    "rootedpath.ord": "7189c391f4d21e0dcce22cd90cc77b32bff48aad3b37295851e52d5e83c2d3ba",
    "rootedpath.oreal": "4ae370614fe729f6c74a72d727f71e3d055a4d7f011ef601efcd0f34edac6c85",
    "rootedpath.real": "4ae370614fe729f6c74a72d727f71e3d055a4d7f011ef601efcd0f34edac6c85",
    "rootedpath.rp": "8617c25deec613b618e4c2d2fc04706c119ea9675cee2491c8087696ac48e677",
    "rootedpath.svg": "7120952b90d4161db665bbe253a8110aa459cd8e88bae2ad1ca433a05c94520c",
}


def _run(*argv):
    assert main(list(argv)) == 0, argv


def _chain(work, name, gen, model, central):
    stem = os.path.join(work, name)
    aux = [] if model in (None, ".and") else ["--aux-out", stem + model]
    _run("gen", *gen, "-o", stem + ".and", *aux)
    real = stem + ".real"
    if model is None:
        _run("realize", "--cycle", gen[2], "-o", real)
    else:
        _run("realize", stem + model, "-o", real)
    _run("verify", real, stem + ".and")
    _run("to-boxes", real, "-o", stem + ".boxes")
    if central:
        _run("to-triangles", real, "-o", stem + ".tri")
    _run("render", real, "-o", stem + ".svg")
    if model in (".iv", ".rp"):
        if model == ".iv":
            spans = fileio.load_file(stem + model, "interval").spans
            ordering = sorted(range(1, len(spans) + 1), key=lambda v: (spans[v - 1][0], v))
        else:
            ordering = rdp_ordering(fileio.load_file(stem + model, "rootedpath"))
        fileio.save_file(stem + ".ord", "ordering", ordering)
        _run("check-order", stem + ".and", stem + ".ord",
             "--realize-out", stem + ".oreal", "--codes-out", stem + ".codes")


def digests(work) -> dict:
    for chain in CHAINS:
        _chain(work, *chain)
    out = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_chain_outputs_keep_their_digests(tmp_path, capsys):
    got = digests(str(tmp_path))
    capsys.readouterr()
    assert got == DIGESTS


# sha256 of dumps_realization for face foldings the chains above do not reach
POLYGON_DIGESTS = {
    "fan-400": "f9a9b601f5c4ae6aec4c2b4c98f3db26a351aacb45b2595c5167a0c3fab1ac10",
    "ear-400": "1e1cea5d17aa0e88eeafe74c0f1c8c8bd4d0d6d21dee711419159e063658b369",
    "nested-400": "688214d189e08bb8256ca857479c03722fba2738e0b76d5fc84ea7dc0672525b",
    "ear-chain-6x101": "e7ae73c776aa5766148b6b0e1f0ddc17a2c5b6d91d49cb378c1f0bb1e084a788",
}


def test_polygon_realizations_keep_their_digests():
    realizations = {
        "fan-400": outerplanar_cand1(fan_polygon(400)),
        "ear-400": outerplanar_cand1(ear_polygon(400)),
        "nested-400": outerplanar_cand1(nested_polygon(400)),
        "ear-chain-6x101": blockwise_cand1(ear_polygon_chain(6, 101)),
    }
    got = {name: hashlib.sha256(fileio.dumps_realization(r).encode()).hexdigest() for name, r in realizations.items()}
    assert got == POLYGON_DIGESTS
