"""Golden bytes: the sha256 of every ``--json`` output of the worked examples.

The digests were recorded with the program as it was before faces,
intersections and slices were built from their extreme rays, so a change that
moves any byte of these outputs fails here.  ``CORPUS_DIGEST`` pins the
relation rows and class maps of seeded random downgrades and bundles beyond
the fixtures, at every k, and ``ORACLE_CORPUS_DIGEST`` those of the toric
oracle on the corpus fans, at every k.  To print the digests of the current program (to
record them after a deliberate change of output), run::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import fan_document, p1p1_fan, p2_fan, random_bundle, random_complete_fan

from tchow.build import (
    FIXTURE_NAMES,
    DowngradeInput,
    bundle_rank2,
    downgrade,
    fixture,
    p2_projectivized_fan,
)
from tchow.chow import presentation, toric_chow_presentation
from tchow.cli import divisor_document, main, parse_fan

GOLDEN = {
    "gr24 validate": "e7f4ad0446efb9b429d7f293e794b9ad1103d6ed2d002ca061e568b9bd6bc030",
    "gr24 chow": "80c6f79a4d7133ee4a08f08f4673b64e29a91eea0c629a75eeffaca513d425af",
    "gr24 counts": "55f9feab01c54e00069da0b9dceb9cd3a3d38f14400c5010f4c3d48167d576d1",
    "gr24 eff 0": "25d9eb05e60c46dcc4f955ac9e53b02a42f3436ad65da039eddffecfd9e5c1d2",
    "gr24 eff 1": "69f098327157d2c14c3c9eed7b843b3fd7ec8874ee7bf32aefdaea883f625792",
    "gr24 eff 2": "e7620953174fe77d3e2fa9913a8e6468fb277e5e4a21970a2b94ee7a8af54ad0",
    "gr24 eff 3": "617f26587ec1cc67b545c5b1d0057275c0ee0a2d3b595efc3d9cc61d9865466b",
    "gr24 eff 4": "8cd17f31c390c0838675c1ecb929e946ef686a794f233e5e81d2a62ceebbb714",
    "p1p1_bundle validate": "e7f4ad0446efb9b429d7f293e794b9ad1103d6ed2d002ca061e568b9bd6bc030",
    "p1p1_bundle chow": "625c107987687d6f0abcf9ba42ff6c4a90cd904a577dee4591dd7d84bf644727",
    "p1p1_bundle counts": "9917a4f148dc8d9a7bf52a4981ff3a29ea83023c11095c975e0d87667644e01e",
    "p1p1_bundle eff 0": "fe9bca911b5065dd6b10c2a6456f7a70dacc14d9bfbe8e2f389fdb9cec3b3115",
    "p1p1_bundle eff 1": "e363e8f6105ebc1cfc6dba13b4ae29839e25d2e3a612a98fcf9f7f23a71ea462",
    "p1p1_bundle eff 2": "d6ccbc06f0dedcfb32600215c499d41d378cb8e44c500c9fb235af2110979f90",
    "p1p1_bundle eff 3": "2faf3b62287319c7523a2a9f3a34c1cc53d023266e7682e3bb1b1ab3e002f2a0",
    "p2_E validate": "e7f4ad0446efb9b429d7f293e794b9ad1103d6ed2d002ca061e568b9bd6bc030",
    "p2_E chow": "17b469cecb54bba41dc1f6fcd1c44ee22b690fa97f1a227d41777e92c2af26d9",
    "p2_E counts": "d7a333065cb5c9f55797584dd8d7b20776148dd2f676cfba24e27327fb5612ec",
    "p2_E eff 0": "e37fceb9c8c01bbf23bd6974176b3ff18a9d84829b550251e1545ac718e09a3e",
    "p2_E eff 1": "831d67e72db6c48d4dca4b6aebefc72e86a1129cb2de5901d3d6dcaf76c6d705",
    "p2_E eff 2": "758b50c6b40e3d7d6b57d63d0921ac70a18afc8252ab0abbe02a70ae144747da",
    "p2_E eff 3": "2faf3b62287319c7523a2a9f3a34c1cc53d023266e7682e3bb1b1ab3e002f2a0",
    "p2_F validate": "e7f4ad0446efb9b429d7f293e794b9ad1103d6ed2d002ca061e568b9bd6bc030",
    "p2_F chow": "db31b61e75b095d38af53fd35f78a9d4e169a5249e026859fa292afa95e94bc7",
    "p2_F counts": "7d722b08397281fca7da9e0d9b64779a35fd43b3052977627ad7f59b12b04b04",
    "p2_F eff 0": "c360b713e39f6bc3d592371acffd5fb88011b6da75b9fcf7d803d56dfc278f34",
    "p2_F eff 1": "707c5edd2e14ad0a86d1cc9e709b091cb586029b211f1771fe6f462af3afa8c5",
    "p2_F eff 2": "9a75818bd12a3426e77eb24ff448911aa92fb6d97ce878f541208b50b2d3ed5c",
    "p2_F eff 3": "2faf3b62287319c7523a2a9f3a34c1cc53d023266e7682e3bb1b1ab3e002f2a0",
    "p2_E_fan oracle": "799f099db389e5050b99c8e9f1679e66a3dfd6fea3528827abf9d3dfff059778",
    "p2_F_fan oracle": "82a63283feaf9950bacb5168c22fa650cb9d3c12da5ef81f4757d2892e5aa735",
}

RECORDED_RANK4_FAN = Path(__file__).resolve().parent.parent / "bench" / "data" / "r4_defect_fan.json"
CORPUS_DIGEST = "b19ab087b7694fd418f6b48e63234d5f388338ef5a0c95999b686c14bbc624f6"
ORACLE_CORPUS_DIGEST = "a582364ac5a987a5fe60fd251dadc146b5d71a6dc40074ef592e4de256a0ddf6"


def corpus_fans():
    """10 seeded rank-3 fans, 3 seeded rank-4 fans and the recorded rank-4 fan."""
    for s in range(10):
        yield random_complete_fan(random.Random(500 + s), 3, 5)
    for s in (0, 17, 28):
        yield random_complete_fan(random.Random(1000 + s), 4, 5)
    yield parse_fan(json.loads(RECORDED_RANK4_FAN.read_text()))


def corpus_divisors():
    """The downgrades of the 14 corpus fans, then 10 seeded bundles.

    The rank-4 fans (three seeded, one recorded) have contracted cycles whose
    character lattice is a proper sublattice of the perp lattice.
    """
    for fan in corpus_fans():
        yield downgrade(DowngradeInput(fan))
    rng = random.Random(2024)
    bases = [p2_fan(), p1p1_fan()]
    for i in range(10):
        yield bundle_rank2(random_bundle(rng, bases[i % 2]))


def corpus_digest() -> str:
    """sha256 over ``(k, relations, class_map)`` of every corpus divisor at every k."""
    h = hashlib.sha256()
    for x in corpus_divisors():
        for k in range(x.rank + 2):
            pres = presentation(x, k)
            h.update(json.dumps([k, pres.relations, pres.class_map]).encode())
    return h.hexdigest()


def oracle_corpus_digest() -> str:
    """sha256 over ``(k, relations, class_map)`` of the oracle of every corpus fan at every k."""
    h = hashlib.sha256()
    for fan in corpus_fans():
        for k in range(fan.ambient_rank + 1):
            pres = toric_chow_presentation(fan, k)
            h.update(json.dumps([k, pres.relations, pres.class_map]).encode())
    return h.hexdigest()


@lru_cache(maxsize=None)
def documents() -> dict:
    """The command and input document of every golden output, by key."""
    return {f"{name} {command}": (command, doc) for name, command, doc in _documents()}


def _documents():
    for name in FIXTURE_NAMES:
        x = fixture(name)
        doc = divisor_document(x)
        yield name, "validate", doc
        yield name, "chow", doc
        yield name, "counts", doc
        for k in range(x.dim_x + 1):
            yield name, f"eff {k}", doc
    for which in ("E", "F"):
        yield f"p2_{which}_fan", "oracle", fan_document(p2_projectivized_fan(which))


def output_digest(tmp_dir, command: str, doc: dict) -> str:
    path = tmp_dir / "doc.json"
    out = tmp_dir / "out.json"
    path.write_text(json.dumps(doc))
    words = command.split()
    argv = [words[0], str(path), "--json", "--out", str(out)]
    if len(words) == 2:
        argv += ["--k", words[1]]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_golden_covers_every_output():
    assert sorted(GOLDEN) == sorted(documents())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_output(tmp_path, key):
    command, doc = documents()[key]
    assert output_digest(tmp_path, command, doc) == GOLDEN[key]


def test_corpus_relations_and_class_maps():
    assert corpus_digest() == CORPUS_DIGEST


def test_oracle_corpus_relations_and_class_maps():
    assert oracle_corpus_digest() == ORACLE_CORPUS_DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, (command, doc) in documents().items():
            sys.stdout.write(f'    "{key}": "{output_digest(Path(tmp), command, doc)}",\n')
    sys.stdout.write(f'CORPUS_DIGEST = "{corpus_digest()}"\n')
    sys.stdout.write(f'ORACLE_CORPUS_DIGEST = "{oracle_corpus_digest()}"\n')
