"""Serialization round trips and independent re-verification."""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import tamper_conjugator

from perfectcover import __version__
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.cli import main
from perfectcover.construction import construct
from perfectcover.errors import InputError
from perfectcover.groups import PermGroup


@pytest.fixture(scope="module")
def a5_cert(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=2)
    return serialize_certificate(cert)


@pytest.fixture(scope="module")
def e16_cert(groups):
    cert = construct((groups["E16A5"],), d=2, k=2, names=("E16A5",), seed=7, budget=2)
    return serialize_certificate(cert)


# SHA-256 of the a5_cert bytes, per certificate format version.  Within a
# version the same seed must give the same bytes, so a kernel refactor that
# silently changes Gamma or its witnesses fails here.
A5_SEED7_DIGESTS = {
    "0.2.0": "b09d8075b2c53d19ce953e19a977898d8c6a61b53cdc2b4a1579d443c34a22cd",
}

# The same for budget 61: the class product of build_T fills A5 before its
# last class, which budget 2 never does.
A5_SEED7_BUDGET61_DIGESTS = {
    "0.2.0": "b3cad6916b936f3145f98b755fde4cdbf1748af8ab76e5a09c1e20d9db0265cf",
}


def test_seed7_certificate_bytes_are_pinned(a5_cert):
    text = dumps_certificate(a5_cert)
    assert hashlib.sha256(text.encode()).hexdigest() == A5_SEED7_DIGESTS[__version__]


def test_seed7_budget61_certificate_bytes_are_pinned(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=61)
    text = dumps_certificate(serialize_certificate(cert))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == A5_SEED7_BUDGET61_DIGESTS[__version__]


# The same for e16_cert (E16A5, d=2, k=2): its level-0 words are not empty,
# so this digest also guards the commutator word search.
E16A5_K2_SEED7_DIGESTS = {
    "0.2.0": "19365d1d94ff08885a03353ebed04f8afbee705756605c9e3808a26beb7342c4",
}


def test_e16a5_k2_certificate_bytes_are_pinned(e16_cert):
    assert any(w != "e" for w in e16_cert["levels"][0]["words"])
    text = dumps_certificate(e16_cert)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == E16A5_K2_SEED7_DIGESTS[__version__]


# The same for A5xA5 (d=2, k=1, budget 2).  Its two simple factors are
# normal subgroups of equal order, so this digest guards the tie order of
# structure.normal_subgroups, which reaches the certificate through
# simple_factors.
A5XA5_SEED7_DIGESTS = {
    "0.2.0": "22a3e024074d4d7eab70ec92ddf624489c69bb664fc373dfe73110db2a40dd93",
}


def test_a5xa5_certificate_bytes_are_pinned(groups):
    cert = construct((groups["A5xA5"],), d=2, k=1, names=("A5xA5",), seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == A5XA5_SEED7_DIGESTS[__version__]


# The two benchmark families (bench/families/k1-cover.txt and k2-mixed.txt)
# at seed 7.  Their Gamma has many members and, at k=1, hundreds of
# generators, so these digests guard the chain and class-walk kernels on
# the inputs the benchmark times.
BENCH_FAMILY_SEED7_DIGESTS = {
    ("A5+A6+PSL27", 1, 61): {
        "0.2.0": "891c2642e1399a82cd57f164ecf1f2d90694ee11ab43904101555887574040c0",
    },
    ("SL25+E16A5", 2, 2): {
        "0.2.0": "078eb9acbcffd7962f25ab716c2b6ced9ff8e10989ac1adca13872f3c5b56689",
    },
}


@pytest.mark.parametrize(
    "family, k, budget", list(BENCH_FAMILY_SEED7_DIGESTS), ids=["k1-cover", "k2-mixed"]
)
def test_benchmark_family_certificate_bytes_are_pinned(groups, family, k, budget):
    names = tuple(family.split("+"))
    cert = construct(
        tuple(groups[n] for n in names), d=2, k=k, names=names, seed=7, budget=budget
    )
    text = dumps_certificate(serialize_certificate(cert))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BENCH_FAMILY_SEED7_DIGESTS[family, k, budget][__version__]


_DIGEST_SCRIPT = """
import hashlib, sys
from perfectcover import catalog
from perfectcover.certificates import dumps_certificate, serialize_certificate
from perfectcover.construction import construct
name, k = sys.argv[1], int(sys.argv[2])
G = catalog.CATALOG[name].group()
cert = construct((G,), d=2, k=k, names=(name,), seed=7, budget=2)
text = dumps_certificate(serialize_certificate(cert))
print(hashlib.sha256(text.encode()).hexdigest())
"""


def _digest_in_fresh_process(name: str, k: int, hash_seed: str) -> str:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, name, str(k)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("hash_seed", ["0", "5"])
def test_certificate_bytes_do_not_depend_on_hash_seed(hash_seed):
    # Gamma's generator list is deduplicated through permutation hashing;
    # a set iteration order that reached the certificate would show here.
    # Permutations hash their bytes, and bytes hashes are salted per process.
    digest = _digest_in_fresh_process("A5", 1, hash_seed)
    assert digest == A5_SEED7_DIGESTS[__version__]


@pytest.mark.parametrize("hash_seed", ["0", "5"])
def test_k2_certificate_bytes_do_not_depend_on_hash_seed(hash_seed):
    # The k=2 path also builds the normal-subgroup lattice of a group with
    # several normal subgroups and runs the commutator word search, which
    # k=1 never reaches.
    digest = _digest_in_fresh_process("E16A5", 2, hash_seed)
    assert digest == E16A5_K2_SEED7_DIGESTS[__version__]


def test_round_trip_is_valid(a5_cert):
    data = json.loads(dumps_certificate(a5_cert))
    report = verify_certificate(data)
    assert report.valid, report.lines()


def test_verification_is_pure(a5_cert):
    first = verify_certificate(a5_cert)
    second = verify_certificate(a5_cert)
    assert first.lines() == second.lines()


def test_version_mismatch_refused(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["version"] = "0.0.0"
    report = verify_certificate(data)
    assert not report.valid
    assert "version" in report.message
    forced = verify_certificate(data, force_version=True)
    assert forced.valid


def test_not_a_certificate():
    report = verify_certificate({"format": "something-else"})
    assert not report.valid


def test_tampered_T_conjugator_rejected(a5_cert):
    report = verify_certificate(tamper_conjugator(a5_cert))
    assert not report.valid
    assert report.failed_steps()[0] == "s-in-T"


@pytest.mark.parametrize(
    "field, value",
    [("e_per_factor", [99]), ("e_per_factor", []), ("full_product", "nope")],
)
def test_inconsistent_cover_field_rejected(a5_cert, field, value):
    data = copy.deepcopy(a5_cert)
    data["levels"][0]["cover"][field] = value
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["T-perfect"]


def test_perturbed_q_coordinate_rejected(e16_cert):
    data = copy.deepcopy(e16_cert)
    perturbed = False
    for lvl in data["levels"]:
        for factor in lvl["factors"]:
            coords = factor["q_coords"]
            if coords is None:
                continue
            coords[0][0][0] = (coords[0][0][0] + 1) % max(factor["module_orders"][0], 2)
            perturbed = True
            break
        if perturbed:
            break
    assert perturbed
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps()[0] == "q-decomposition"


def test_non_commutator_word_rejected(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["levels"][0]["words"][0] = "x1"
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps()[0] == "words"


def test_wrong_gamma_order_rejected(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["gamma"]["order"] += 1
    report = verify_certificate(data)
    assert not report.valid
    assert "gamma-perfect" in report.failed_steps()


def test_foreign_gamma_generator_rejected(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["gamma"]["generators"].append({"0": "(1 2 3)"})
    report = verify_certificate(data)
    assert not report.valid
    assert "gamma-perfect" in report.failed_steps()


def test_level_gamma_copy_cannot_cover_foreign_generator(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["gamma"]["generators"].append({"0": "(1 2 3)"})
    data["levels"][0]["gamma"]["generators"] = data["gamma"]["generators"]
    report = verify_certificate(data)
    assert not report.valid
    assert "gamma-perfect" in report.failed_steps()


@pytest.mark.parametrize("where", ["both", "level", "top"])
def test_bool_marked_index_rejected(a5_cert, where):
    # True == 1 in Python, so a bool must be refused explicitly
    data = copy.deepcopy(a5_cert)
    assert data["gamma"]["marked"][1] == 1  # so the mutation keeps the index
    blocks = {
        "both": [data["levels"][0]["gamma"], data["gamma"]],
        "level": [data["levels"][0]["gamma"]],
        "top": [data["gamma"]],
    }[where]
    for block in blocks:
        block["marked"][1] = True
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["gamma-perfect"]


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("mutation", ["text", "empty", "swapped"])
def test_level_factor_generators_checked(e16_cert, level, mutation):
    data = copy.deepcopy(e16_cert)
    factor = data["levels"][level]["factors"][0]
    gens = factor["generators"]
    if mutation == "text":
        factor["generators"] = "x"
    elif mutation == "empty":
        factor["generators"] = []
    else:
        assert len(gens) >= 2 and gens[0] != gens[1]
        gens[0], gens[1] = gens[1], gens[0]
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["structure"]


@pytest.mark.parametrize(
    "field, value",
    [("seed", "x"), ("budget", True), ("cap", []), ("seed", None)],
    ids=["seed-text", "budget-bool", "cap-list", "seed-missing"],
)
def test_run_parameter_fields_must_be_integers(a5_cert, tmp_path, field, value):
    data = copy.deepcopy(a5_cert)
    if value is None:
        del data[field]
    else:
        data[field] = value
    with pytest.raises(InputError):
        verify_certificate(data)
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 2


def test_family_name_must_be_text(a5_cert):
    data = copy.deepcopy(a5_cert)
    data["family"][0]["name"] = {}
    report = verify_certificate(data)
    assert not report.valid
    assert "family" in report.failed_steps()


@pytest.mark.parametrize(
    "level, name",
    [(0, "E16A5/W"), (0, {}), (1, "E16A5"), (1, "E16A5/W/W"), (1, None)],
    ids=["top-suffixed", "top-object", "deep-unsuffixed", "deep-extra", "deep-null"],
)
def test_level_factor_name_checked(e16_cert, level, name):
    data = copy.deepcopy(e16_cert)
    assert data["levels"][level]["factors"][0]["name"] == "E16A5" + "/W" * level
    data["levels"][level]["factors"][0]["name"] = name
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["structure"]


def test_levels_hold_witnesses_only(e16_cert):
    for lvl in e16_cert["levels"]:
        assert not {"T_entries", "Q_entries", "delta", "prev_marked"} & set(lvl)
        assert set(lvl["gamma"]) == {"order", "marked"}
    assert set(e16_cert["gamma"]) == {"generators", "order", "marked"}


def test_k0_certificate_is_valid():
    cert = construct((PermGroup(2, ()),), d=1, k=0, names=("T",))
    data = serialize_certificate(cert)
    assert data["levels"] == []
    assert verify_certificate(data).valid


def test_byte_identical_rerun(groups, a5_cert):
    again = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=2)
    assert dumps_certificate(serialize_certificate(again)) == dumps_certificate(a5_cert)


def test_different_seed_still_valid(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=8, budget=2)
    report = verify_certificate(serialize_certificate(cert))
    assert report.valid
