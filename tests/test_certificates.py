"""Serialization round trips and independent re-verification."""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import tamper_conjugator

from perfectcover import __version__, certificates, products
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.cli import main
from perfectcover.construction import construct
from perfectcover.errors import InputError
from perfectcover.groupfile import parse_family_file
from perfectcover.groups import CosetMap, PermGroup
from perfectcover.perms import format_cycles, parse_cycles


@pytest.fixture(scope="module")
def a5_cert(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=2)
    return serialize_certificate(cert)


@pytest.fixture(scope="module")
def e16_cert(groups):
    cert = construct((groups["E16A5"],), d=2, k=2, names=("E16A5",), seed=7, budget=2)
    return serialize_certificate(cert)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_pinned(text: str, digests: dict) -> None:
    """The bytes have this version's pinned digest.  The older entries are
    kept as history and for the fixtures of those formats."""
    assert _sha256(text) == digests[__version__]


# SHA-256 of the a5_cert bytes, per certificate format version.  Within a
# version the same seed must give the same bytes, so a kernel refactor that
# silently changes Gamma or its witnesses fails here.
A5_SEED7_DIGESTS = {
    "0.3.0": "310abda7b194d40eb51b9b429341693b1526e6e13fb9cb9c9e9d41d15efb3dce",
    "0.4.0": "b4d097c44b789cc68b54855b46d3a8c9ed4bc4207d1ae2341d41e9098dd30dfb",
    "0.5.0": "94239e9242f7a65401b5ef23967434b86e6933bf740dd638f28b8a32b0ec6a85",
    "0.6.0": "71f6426fc33415169cbe30e24baab806954896f93088c9b7fc21bf51e632cd05",
    "0.7.0": "9aeaf3e8dedb74405d7f33c91bf168e5500397978bad9380c0a3b08a09d8a9fe",
    "0.8.0": "3c761109ad597aca410c713fcdd73dcd9f12e9cd6cf726978c33fd15731156f2",
    "0.9.0": "63b24ac7d8d3f7922ed2b89ce0559a77a6d201db554c2d5fec200ba38b0756ff",
}

# The same for budget 61: the class product of build_T fills A5 before its
# last class, which budget 2 never does.
A5_SEED7_BUDGET61_DIGESTS = {
    "0.3.0": "a65b094f2c78528cd74a5e53eff1e5e0adfe76935e8ef0284f55ba58a9c6c8ed",
    "0.4.0": "d56d79643727a4d7516583a2536feb821d9fc904d236655b837b01a627708585",
    "0.5.0": "0d87127ce99b8dd8aefa63ec91e9810776b0556a09038b49f7b14ab0b311fcfa",
    "0.6.0": "c892320039e14d1f5e04e1f28736a23b24361bfe573832fb098a05474e710d05",
    "0.7.0": "7ab3abab12e328f759991130c5abb83171cea80e335e675404b6a156f9d725e8",
    "0.8.0": "8d282d70ca07d991a2c96ce8f7abd8d85e6d4db57fc5c0f9f4521f75323f1b36",
    "0.9.0": "de57456ab7790a875acfa11ed4d1f90ce7fc487552e98296c01164afb52b74aa",
}


def test_seed7_certificate_bytes_are_pinned(a5_cert):
    _assert_pinned(dumps_certificate(a5_cert), A5_SEED7_DIGESTS)


def test_seed7_budget61_certificate_bytes_are_pinned(groups):
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=61)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, A5_SEED7_BUDGET61_DIGESTS)


# The same for e16_cert (E16A5, d=2, k=2): its level-0 words are not empty,
# so this digest also guards the commutator word search.
E16A5_K2_SEED7_DIGESTS = {
    "0.3.0": "a638bb618af763b524198f062725c83a162458862f86b447cbbfd0209dd01d4f",
    "0.4.0": "5b23274d1515f319af8e27e95521e89811d4739c6c79555f21a99aa29d803940",
    "0.5.0": "e78e1ea7145cfa3c3ad524b0b95896e64fad47d6ff437c92861b15bc1ca42cec",
    "0.6.0": "20e29097cf4b083c9d894db2c70569cf29701427f17e5178a3d51cd7882f63e5",
    "0.7.0": "f497a947c6c1bd603fde7fb4b447c083e1f9f1c96ba033024c9e1a1955f40e21",
    "0.8.0": "18a5dadfda73372ee1cc6b1444247306f9973113a9b59455caf9610aaacb34cd",
    "0.9.0": "b153393abaf39be7d3100cc06a49a30a75922edaa80b937a8a8a59d6c864642d",
}


def test_e16a5_k2_certificate_bytes_are_pinned(e16_cert):
    assert any(w != "e" for w in e16_cert["levels"][0]["words"])
    _assert_pinned(dumps_certificate(e16_cert), E16A5_K2_SEED7_DIGESTS)


# The same for A5xA5 (d=2, k=1, budget 2).  Its two simple factors are
# normal subgroups of equal order, so this digest guards the tie order of
# structure.normal_subgroups, which reaches the certificate through the
# order of the cover tuples.
A5XA5_SEED7_DIGESTS = {
    "0.3.0": "013d4f6830a45b86865260bfaaf0d0c9d544f3a183190df97e82f46bfd7a7a1a",
    "0.4.0": "01931f9a6b6141f3a3a9ac9ec8037d5e094b8eb2f73f22b9b602115ef643ac10",
    "0.5.0": "b593f1054888e0f856fedd0969b09bf04d1c6c8bc417b57d09c20c3a88bc2eff",
    "0.6.0": "251ecebb85f65ee860de54a25689d002c93831bb29e0d1e87c6cbf09387add48",
    "0.7.0": "fe32f36b51fd1ac83b685e9bf84ca0976104a360ebd913359f8133dfa2ad39e9",
    "0.8.0": "bcfb9b749594b243d58b708424ac8f746097c2b577aacea55459754c43d8e3ee",
    "0.9.0": "a329b451a99aa90e729864e278989f4aa8592cf7f0277c377dda165e049a4708",
}


def test_a5xa5_certificate_bytes_are_pinned(groups):
    cert = construct((groups["A5xA5"],), d=2, k=1, names=("A5xA5",), seed=7, budget=2)
    _assert_pinned(dumps_certificate(serialize_certificate(cert)), A5XA5_SEED7_DIGESTS)


# The two benchmark families (bench/families/k1-cover.txt and k2-mixed.txt)
# at seed 7.  Their Gamma has many members and, at k=1, hundreds of
# generators, so these digests guard the chain and class-walk kernels on
# the inputs the benchmark times.
BENCH_FAMILY_SEED7_DIGESTS = {
    ("A5+A6+PSL27", 1, 61): {
        "0.3.0": "53b1fa0930cd2a0a23f75b94a37b9d2b5726a7b1ad4afeda2d59649d540b5d2e",
        "0.4.0": "5185e188810aff32e55237427592a7c0ecfbd5e9cabed49ea83c1d974d22087d",
        "0.5.0": "83d1d740ff74eb6d7c80fcc9dac98cb8c8e855b2bb59690ff029f14ff30080c0",
        "0.6.0": "d8aeeed499c3ad06084f348a619e4dcd178a2a04728b349b7ca9d67a026a5804",
        "0.7.0": "fa18a2e0158f7791454ebdcad9e673f8f1043d81cd837c331e3d6bd73307d219",
        "0.8.0": "aeacc621ac2e4742f0bec62921fcb06c560eeac5868c0bd98a11a7934efa8f6d",
        "0.9.0": "5720991ae9746e58406fbbc1f49de22939e6a36913819b48e700fd2ce2f8136b",
    },
    ("SL25+E16A5", 2, 2): {
        "0.3.0": "bc5e97568aaca3a9e5df3f886067a4c420a879a33562034b06c3ed82e5f66d95",
        "0.4.0": "7f0ce09443fbcd65c0c1969fa3699c29005538042598ef066c4594489d6b34e5",
        "0.5.0": "9e326be870c7db9e2595b031c5288dfb007d53d76dcf1e94f4efdbc76722f02b",
        "0.6.0": "3c629631f39b6f1bcb5050260601fd1cbd60549b812fdcff152ab69d57ab4edc",
        "0.7.0": "a339c6d17695169c5c100210a258a5f30bad7221135f1f138fd98c62ed343198",
        "0.8.0": "fc54ac78d412a95aeb5e051ca42c8605ed7b8b8c225a6905b052f2df9917beee",
        "0.9.0": "ce57fa52239a96192ce9552de79b886fd8cd23f6b4385711a812202d9a5a4652",
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
    _assert_pinned(text, BENCH_FAMILY_SEED7_DIGESTS[family, k, budget])


# tests/data/k1-A8.txt at seed 7, budget 61: A8 has 14 classes and order
# 20160, so the covering layer sees classes of up to 2880 members and the
# decomposer saturates on the whole group.
A8_FAMILY_SEED7_DIGESTS = {
    "0.3.0": "ac326168f7bec636c5a1834183c39838824140d9449a6a82e294ea009d739eb6",
    "0.4.0": "75e16caa11508baeea2030e8026576df5ecb13e4139e61af8a23f464cdaa29cb",
    "0.5.0": "01ff7859035d2dc90b720fcf14bf067a10ad925770b87f55d4f37a90407e4b24",
    "0.6.0": "561ac49da19240408d1ea60168b0c9caa080c843056826429ce3c68416ef0637",
    "0.7.0": "dcdd81b73d93d27b2ed5c3f10b59ba6e6e893d994289ca3f9211a73f2ad5b9b8",
    "0.8.0": "534e0cb643589b4e49fbaf6616554d447362085a48c87c25259039cc3c7269d6",
    "0.9.0": "3c9fc69f85a973b024b19e6d80107fd804096c6333c648a4543a85edfaca31ed",
}


def test_a8_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k1-A8.txt"
    names, members, d, k = parse_family_file(str(family))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=61)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, A8_FAMILY_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k1-M11.txt at seed 7, budget 61: the Mathieu group M11 of
# order 7920, a simple group that is not alternating.
M11_FAMILY_SEED7_DIGESTS = {
    "0.4.0": "bf537cb25a1169e473ed51c634e1d9cf30c53a128dd48d5c43014f7d6114ad3a",
    "0.5.0": "a8bc733324151eb619ed6972ed500f6604f64a91d8011ebb3e81e8803cacc842",
    "0.6.0": "ba73ecbf53f1e0a1892d8d3ab152defc7260d44c686b8cf4b805b5b5c152e153",
    "0.7.0": "27c812dccb37710eb16e7792e5427717f5807a7dab64e564e230b0fc31c5223c",
    "0.8.0": "7ffec360a1cd1735849ffd06daf3f529000ae416b9531f7eae42df9adc7a43f7",
    "0.9.0": "525ceb6665e5bc42bd8db0349d572e913088ad4bfc2dca717e854af72ce727d2",
}


def test_m11_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k1-M11.txt"
    names, members, d, k = parse_family_file(str(family))
    assert [G.order for G in members] == [7920]
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=61)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, M11_FAMILY_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k1-A5xA5.txt at seed 7, budget 2: one member with two simple
# factors of equal order, whose tie order reaches the certificate.
A5XA5_FAMILY_SEED7_DIGESTS = {
    "0.4.0": "01931f9a6b6141f3a3a9ac9ec8037d5e094b8eb2f73f22b9b602115ef643ac10",
    "0.5.0": "b593f1054888e0f856fedd0969b09bf04d1c6c8bc417b57d09c20c3a88bc2eff",
    "0.6.0": "251ecebb85f65ee860de54a25689d002c93831bb29e0d1e87c6cbf09387add48",
    "0.7.0": "fe32f36b51fd1ac83b685e9bf84ca0976104a360ebd913359f8133dfa2ad39e9",
    "0.8.0": "bcfb9b749594b243d58b708424ac8f746097c2b577aacea55459754c43d8e3ee",
    "0.9.0": "a329b451a99aa90e729864e278989f4aa8592cf7f0277c377dda165e049a4708",
}


def test_a5xa5_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k1-A5xA5.txt"
    names, members, d, k = parse_family_file(str(family))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, A5XA5_FAMILY_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k2-A5xA5-SL25.txt at seed 7, budget 2: the level-1 Gamma has
# order 216,000, so this digest guards the commutator word search on a
# large group, where it stops after a few of Gamma's classes.
A5XA5_SL25_K2_SEED7_DIGESTS = {
    "0.5.0": "4511970e698a103a29770eb262adf7f74a44ca6c37540e2070b9b9febd9f1cfd",
    "0.6.0": "5bd659bbb88b913740ddc4f09120f2017f815d7908e940f5904f1d8a67e22ca0",
    "0.7.0": "0e45464d8aa5c02abe0cf522212499f7f1110d9911f4237d1e9db44ef4aada78",
    "0.8.0": "1cf0e602f2ee956652cefdd21430a49d5afcdf072396f3817498184ea71a7c86",
    "0.9.0": "d49449576d817902057a1d4bc332d114272f3010e14794837e068c3a393a29eb",
}


def test_a5xa5_beside_sl25_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k2-A5xA5-SL25.txt"
    names, members, d, k = parse_family_file(str(family))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, A5XA5_SL25_K2_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k2-W2A5.txt at seed 7, budget 2: W2A5 = 2^4:A5 is a second
# affine group of order 960, whose module A5 splits into two orbits of
# nonzero vectors (10 + 5), where E16A5's has one orbit of 15.
W2A5_K2_SEED7_DIGESTS = {
    "0.5.0": "52c1b05c37f30cf4e4e993afb89f90802450fe6519217932b5cb78c5c6416679",
    "0.6.0": "eb74ac4e8a5906b97b3166d889b15152a1f2ffee3383f29929ebdb8c6f15bb96",
    "0.7.0": "ccffc87eb318b98238144bb461a3db411574474a6c75d38e37650947e2b9bf62",
    "0.8.0": "3a29d8a1e41054cec01a5b94df0881ddb74111bfa7579ffd3143b09594640ea5",
    "0.9.0": "ce00e0bdcbe05f03e8365a3e842571e56a47cf46ae2fe185b83512a56bc5f30e",
}


def test_w2a5_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k2-W2A5.txt"
    names, members, d, k = parse_family_file(str(family))
    assert [G.order for G in members] == [960]
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, W2A5_K2_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k2-W3A5-SL25.txt at seed 7, budget 2: W3A5 = 3^4:A5, an
# affine group of order 4860, beside SL(2,5).
W3A5_SL25_K2_SEED7_DIGESTS = {
    "0.7.0": "3b26ed17ab85e8fd79ccb2128062f79e6e30ee39b7134648c5fabc2e9a39f413",
    "0.8.0": "8ae37d3d1c2dd0d5e706f316eea3755e5751446ef1448c39dbf197812d90bdc4",
    "0.9.0": "f26d23f82fab22323725c056b390d23e6459f80a29905ba697afc31ee8e41408",
}


def test_w3a5_beside_sl25_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k2-W3A5-SL25.txt"
    names, members, d, k = parse_family_file(str(family))
    assert [G.order for G in members] == [4860, 120]
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, W3A5_SL25_K2_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k2-W7A5.txt at seed 7, budget 2: W7A5 = 7^4:A5 has a module
# of 2401 elements, whose q elements the certificate stores.
W7A5_K2_SEED7_DIGESTS = {
    "0.6.0": "48a8a50391f4ebce3360a1d6856b35fdd284251fedea3ac7b964dec9337425ff",
    "0.7.0": "be413bfbb09ba2d91c76aa8ea5ccfdf8784cc122190a552e70238ec5282f27c3",
    "0.8.0": "15980637a376300613827ae61d1b7a0fa8b70b7718fe993970249014ba721b38",
    "0.9.0": "3462758a873215e83988a0f6d60c066067eb5dd9bb27ae0c8b3c4ec05dc6ab57",
}


def test_w7a5_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k2-W7A5.txt"
    names, members, d, k = parse_family_file(str(family))
    assert [G.order for G in members] == [144060]
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, W7A5_K2_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


# tests/data/k2-three.txt at seed 7, budget 2: W2A5, E16A5 and SL25, whose
# quotients act on 5, 16 and 12 points (blocks, a complement of the regular
# 2^4, blocks), so the level-1 Gamma lies in A5^3 on 33 points.
K2_THREE_SEED7_DIGESTS = {
    "0.9.0": "92a205bfe8bdf87b5c8a73abf71e60c27f4646a57543e0c33a5b52054225c2fd",
}


def test_k2_three_family_constructs_and_verifies():
    family = pathlib.Path(__file__).parent / "data" / "k2-three.txt"
    names, members, d, k = parse_family_file(str(family))
    assert [G.order for G in members] == [960, 960, 120]
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    assert [G.degree for G in cert.levels[1].family] == [5, 16, 12]
    text = dumps_certificate(serialize_certificate(cert))
    _assert_pinned(text, K2_THREE_SEED7_DIGESTS)
    assert verify_certificate(json.loads(text)).valid


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


def test_perturbed_q_coordinate_rejected(e16_cert):
    # q_00 becomes k_0, another element of A: in A, but the decomposition
    # of k_0 no longer holds
    data = copy.deepcopy(e16_cert)
    factor = next(f for f in data["levels"][0]["factors"] if f["q"] is not None)
    assert factor["q"][0][0] != factor["k_res"][0] != "()"
    factor["q"][0][0] = factor["k_res"][0]
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["q-decomposition"]


@pytest.fixture(scope="module")
def mixed_cert(groups):
    cert = construct(
        (groups["SL25"], groups["E16A5"]),
        d=2, k=2, names=("SL25", "E16A5"), seed=7, budget=2,
    )
    return serialize_certificate(cert)


def test_q_coordinates_need_a_module_basis(mixed_cert):
    # a q block on a member whose A is trivial
    data = copy.deepcopy(mixed_cert)
    factor = data["levels"][1]["factors"][0]
    assert factor["q"] is None
    factor["q"] = [["()", "()"], ["()", "()"]]
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["q-decomposition"]


def _q_outside_A(factor):
    # SL25's A is its centre of order 2, which holds no lift; the
    # decomposition of k_0 = 1 still holds, since [a_0, a_0] = 1
    assert factor["q"][0] == ["()", "()"]
    factor["q"][0][0] = factor["lifts"][0]


def _q_row_missing(factor):
    factor["q"].pop()


def _q_row_too_long(factor):
    factor["q"][0].append(factor["q"][0][0])


@pytest.mark.parametrize(
    "mutate",
    [_q_outside_A, _q_row_missing, _q_row_too_long],
    ids=["outside-A", "m-1-rows", "m+1-elements"],
)
def test_q_must_be_m_by_m_elements_of_A(mixed_cert, mutate):
    # each edit fails the q-decomposition step alone: the Q-module step
    # reads every stored q, so it still finds the same Q
    data = copy.deepcopy(mixed_cert)
    mutate(data["levels"][0]["factors"][0])
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["q-decomposition"]


def _q_unparsable(factor):
    factor["q"] = [["(1 2 2)"]]


def _q_missing(factor):
    # as certificates before format 0.8.0 were written
    del factor["q"]


@pytest.mark.parametrize(
    "mutate", [_q_unparsable, _q_missing], ids=["unparsable", "missing"]
)
def test_steps_that_need_an_unreadable_q_name_q_decomposition(mixed_cert, mutate):
    # level 1's q cannot be read: its Q and Gamma, and so level 2's words
    # and lifts, which act on level 1's Gamma, have no q to be built from
    data = copy.deepcopy(mixed_cert)
    mutate(data["levels"][1]["factors"][0])
    report = verify_certificate(data)
    assert report.failed_steps() == [
        "words", "lifts", "q-decomposition", "Q-module", "gamma-perfect", "projections"
    ]
    problems = {s.name: s.problems for s in report.steps}
    assert not any("no q" in p for p in problems["q-decomposition"])
    for step in ("words", "lifts", "Q-module", "gamma-perfect", "projections"):
        assert problems[step], step
        assert all(p.endswith("VerificationError: no q (see q-decomposition)")
                   for p in problems[step]), step


def _double_k_res(factor):
    factor["k_res"] = factor["k_res"] * 2


def _extra_s_res(factor):
    factor["s_res"].append(factor["s_res"][0])


@pytest.mark.parametrize(
    "mutate", [_double_k_res, _extra_s_res], ids=["k_res-doubled", "s_res-extra"]
)
def test_residue_counts_must_equal_m(mixed_cert, mutate):
    # the checks read residues 0..m-1 only, so extra entries went unread
    data = copy.deepcopy(mixed_cert)
    mutate(data["levels"][0]["factors"][0])
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["equation1"]


@pytest.mark.parametrize("r", [True, [[["x"]]]], ids=["true", "junk"])
def test_conjugators_need_a_cover(mixed_cert, r):
    data = copy.deepcopy(mixed_cert)
    level = data["levels"][0]
    assert level["cover"] is None and level["r"] is None
    level["r"] = r
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["s-in-T"]


def test_conjugator_rows_match_the_cover(mixed_cert):
    # r[l][idx][t] holds one conjugator per element of cover tuple idx
    data = copy.deepcopy(mixed_cert)
    level = data["levels"][1]
    row = level["r"][0][0][0]
    assert len(row) == len(level["cover"]["tuples"][0])
    row.append(row[0])
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["s-in-T"]


def test_verify_parses_each_distinct_string_once(groups, monkeypatch):
    # seed-7 k1-cover: the verifier parses each distinct (string, degree)
    # of the document once, however often it repeats
    names = ("A5", "A6", "PSL27")
    cert = construct(
        tuple(groups[n] for n in names), d=2, k=1, names=names, seed=7, budget=61
    )
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    degrees = [f["degree"] for f in data["family"]]
    level = data["levels"][0]
    strings = [(s, f["degree"]) for f in data["family"] for s in f["generators"]]
    for f, n in zip(level["factors"], degrees):
        assert f["q"] is None
        strings += [(s, n) for key in ("lifts", "k_res", "s_res") for s in f[key]]
    # every member is simple, so cover tuple idx belongs to member idx
    strings += [(s, n) for tup, n in zip(level["cover"]["tuples"], degrees) for s in tup]
    strings += [
        (s, n)
        for per_l in level["r"]
        for per_idx, n in zip(per_l, degrees)
        for row in per_idx
        for s in row
    ]
    calls = []
    original = certificates.parse_cycles

    def counting(text, degree):
        calls.append((text, degree))
        return original(text, degree)

    monkeypatch.setattr(certificates, "parse_cycles", counting)
    assert verify_certificate(data).valid
    assert sorted(calls) == sorted(set(strings))
    assert len(calls) < len(strings)


def test_verify_parses_each_q_string_once(mixed_cert, monkeypatch):
    # seed-7 k2-mixed: SL25's q holds "()" four times on 24 points, and
    # E16A5's holds it twice more on 16; each (string, degree) is parsed once
    level = mixed_cert["levels"][0]
    degrees = [f["degree"] for f in mixed_cert["family"]]
    q_strings = [
        (s, n) for f, n in zip(level["factors"], degrees) for row in f["q"] for s in row
    ]
    assert len(set(q_strings)) < len(q_strings)
    calls = []
    original = certificates.parse_cycles

    def counting(text, degree):
        calls.append((text, degree))
        return original(text, degree)

    monkeypatch.setattr(certificates, "parse_cycles", counting)
    assert verify_certificate(mixed_cert).valid
    assert len(calls) == len(set(calls))
    assert set(q_strings) <= set(calls)


def test_malformed_conjugator_repeated_in_two_rows_fails_s_in_T(
    a5_cert, tmp_path, capsys
):
    # a string that fails to parse fails the step that reads it, wherever
    # it repeats; no parse result of it is kept
    data = copy.deepcopy(a5_cert)
    r = data["levels"][0]["r"]
    assert len(r) == 2
    r[0][0][0][0] = r[1][0][0][0] = "(1 2 2)"
    report = verify_certificate(data)
    assert not report.valid
    problems = {s.name: s.problems for s in report.steps}
    assert any("repeated point" in p for p in problems["s-in-T"])
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_parse_failures_are_not_kept():
    parsed = {}
    assert certificates._parse_gens(["(1 7)"], 7, parsed) == [parse_cycles("(1 7)", 7)]
    for _ in range(2):
        with pytest.raises(InputError, match="out of range"):
            certificates._parse_gens(["(1 7)"], 5, parsed)
        with pytest.raises(InputError, match="repeated point"):
            certificates._parse_gens(["(1 2 2)"], 5, parsed)
    assert list(parsed) == [("(1 7)", 7)]


def test_covering_exponent_must_be_an_integer(groups):
    # at budget 61 the A5 cover has e = 1, which true used to stand in for
    cert = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=61)
    data = serialize_certificate(cert)
    assert data["levels"][0]["cover"]["e"] == 1
    data["levels"][0]["cover"]["e"] = True
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["s-in-T"]


def test_module_basis_text_with_a_point_in_two_cycles_rejected(mixed_cert):
    # "(1 6)(2 5)...(1 6)(2 5)..." used to read as its second half
    data = copy.deepcopy(mixed_cert)
    row = data["levels"][0]["factors"][1]["q"][1]
    assert row[1] != "()"
    row[1] = row[1] * 2
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps()[0] == "q-decomposition"


@pytest.mark.parametrize("forge_m", [False, True], ids=["d", "d-and-m"])
def test_huge_d_is_rejected_without_padding_to_d(e16_cert, forge_m):
    # The padded generator list has length max(marked, d); it is compared
    # with m before it is built, and a forged m equal to d is refused by the
    # word and lift counts, so no list of length 10**9 is ever made.
    data = copy.deepcopy(e16_cert)
    data["d"] = 10**9
    if forge_m:
        for lvl in data["levels"]:
            lvl["m"] = 10**9
    t0 = time.perf_counter()
    report = verify_certificate(data)
    assert time.perf_counter() - t0 < 1.0
    assert not report.valid
    assert report.failed_steps()[0] == "words"
    if forge_m:
        assert "lifts" in report.failed_steps()


def test_lift_count_must_equal_m(e16_cert):
    data = copy.deepcopy(e16_cert)
    data["levels"][0]["factors"][0]["lifts"].append(
        data["levels"][0]["factors"][0]["lifts"][0]
    )
    report = verify_certificate(data)
    assert not report.valid
    assert "lifts" in report.failed_steps()


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
    # a level stores no generator list; a stray one is not read, and the top
    # block is still compared with the generators the witnesses give
    data = copy.deepcopy(a5_cert)
    data["gamma"]["generators"].append({"0": "(1 2 3)"})
    data["levels"][0]["generators"] = data["gamma"]["generators"]
    report = verify_certificate(data)
    assert not report.valid
    assert "gamma-perfect" in report.failed_steps()


@pytest.mark.parametrize("where", ["both", "level", "top"])
def test_bool_marked_index_rejected(a5_cert, where):
    # True == 1 in Python, so a bool must be refused explicitly
    data = copy.deepcopy(a5_cert)
    assert data["gamma"]["marked"][1] == 1  # so the mutation keeps the index
    blocks = {
        "both": [data["levels"][0], data["gamma"]],
        "level": [data["levels"][0]],
        "top": [data["gamma"]],
    }[where]
    for block in blocks:
        block["marked"][1] = True
    report = verify_certificate(data)
    assert not report.valid
    assert report.failed_steps() == ["gamma-perfect"]


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


def test_levels_hold_witnesses_only(e16_cert):
    # level 2 has a module and no cover, level 1 a cover and no module
    covers = [lvl["cover"] for lvl in e16_cert["levels"]]
    assert covers[0] is None and covers[1] is not None
    for lvl in e16_cert["levels"]:
        assert set(lvl) == {"m", "words", "factors", "cover", "r", "marked"}
        for factor in lvl["factors"]:
            assert set(factor) == {"lifts", "k_res", "s_res", "q"}
    assert set(covers[1]) == {"e", "tuples"}
    assert set(e16_cert["gamma"]) == {"generators", "order", "marked"}


def test_verify_builds_one_quotient_map_per_level_factor(mixed_cert, monkeypatch):
    # the quotient family and the lifts step share one map per member, and
    # no member of k2-mixed takes the coset action of a proper W > 1
    built, cosets = [], []
    original, original_coset = products.quotient_map, CosetMap.__init__

    def counting(G, W, *args):
        built.append((G.order, W.order))
        return original(G, W, *args)

    def coset_map(self, group, normal, *args):
        cosets.append((group.order, normal.order))
        original_coset(self, group, normal, *args)

    monkeypatch.setattr(products, "quotient_map", counting)
    monkeypatch.setattr(CosetMap, "__init__", coset_map)
    assert verify_certificate(mixed_cert).valid
    assert built == [(120, 2), (960, 16), (60, 60), (60, 60)]
    assert cosets == [(60, 60), (60, 60)]


def test_a_member_that_does_not_split_fails_structure(a5_cert, groups, tmp_path):
    # SL(2,5) has level 2: at level 1 its W is SL(2,5) itself, which is not
    # star-trivial, so the level has no split and no deeper family
    data = copy.deepcopy(a5_cert)
    SL25 = groups["SL25"]
    data["family"][0] = {
        "name": "SL25",
        "degree": SL25.degree,
        "generators": [format_cycles(g) for g in SL25.generators],
    }
    report = verify_certificate(data)
    assert report.failed_steps() == ["family", "structure"]
    problems = {s.name: s.problems for s in report.steps}
    assert any("not star-trivial" in p for p in problems["structure"])
    assert "level 1 does not split" in report.message
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_cover_needs_one_tuple_per_simple_factor(a5_cert, change):
    data = copy.deepcopy(a5_cert)
    tuples = data["levels"][0]["cover"]["tuples"]
    if change == "extra":
        tuples.append(list(tuples[0]))
    else:
        tuples.pop()
    report = verify_certificate(data)
    assert not report.valid
    problems = {s.name: s.problems for s in report.steps}
    assert any("one tuple per simple factor" in p for p in problems["T-perfect"])
    if change == "extra":
        assert report.failed_steps() == ["T-perfect"]


@pytest.mark.parametrize("budget", [2, 61])
def test_cover_tuple_must_lie_in_its_factor(budget):
    # A5 x A5 has two simple factors of order 60.  With its two cover
    # tuples swapped, each tuple generates a group of the right order, the
    # other factor, and the cover elements, products over both factors,
    # are unchanged; only membership in the factor tells them apart.
    family = pathlib.Path(__file__).parent / "data" / "k1-A5xA5.txt"
    names, members, d, k = parse_family_file(str(family))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=budget)
    data = serialize_certificate(cert)
    assert verify_certificate(data).valid
    tuples = data["levels"][0]["cover"]["tuples"]
    assert tuples[0] != tuples[1]
    tuples[0], tuples[1] = tuples[1], tuples[0]
    report = verify_certificate(data)
    assert report.failed_steps() == ["T-perfect"]
    problems = {s.name: s.problems for s in report.steps}
    assert any(
        "cover tuple 0 does not generate its factor" in p for p in problems["T-perfect"]
    )


@pytest.mark.parametrize("budget", [3, 1, 61, -1, 1000])
def test_budget_must_match_the_cover_tuples(a5_cert, tmp_path, capsys, budget):
    # every cover tuple holds exactly `budget` elements; a certificate
    # whose budget says otherwise is invalid at T-perfect
    data = copy.deepcopy(a5_cert)
    assert all(len(t) == data["budget"] == 2 for t in data["levels"][0]["cover"]["tuples"])
    data["budget"] = budget
    report = verify_certificate(data)
    assert report.failed_steps() == ["T-perfect"]
    problems = {s.name: s.problems for s in report.steps}
    assert any(f"not the budget {budget}" in p for p in problems["T-perfect"])
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


# A5, d=2, k=1, budget 2, seed 7 as format 0.2.0 wrote it: levels held
# W, A, S, B, the simple factors, factor names and generators and a gamma
# block, and no level-level `marked`.
FORMAT_0_2_0_CERT = pathlib.Path(__file__).parent / "data" / "a5-seed7-format-0.2.0.json"


def test_old_format_certificate_gives_a_report(capsys):
    text = FORMAT_0_2_0_CERT.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b09d8075b2c53d19ce953e19a977898d8c6a61b53cdc2b4a1579d443c34a22cd"
    )
    data = json.loads(text)
    refused = verify_certificate(data)
    assert not refused.valid and "version" in refused.message
    forced = verify_certificate(data, force_version=True)
    assert not forced.valid
    assert "level data unreadable" in forced.message
    assert main(["verify", str(FORMAT_0_2_0_CERT), "--force"]) == 1


# The same certificate as format 0.3.0 wrote it: its top gamma block held
# all 12 derived generators of Gamma, of which [0, 1] were marked.
FORMAT_0_3_0_CERT = pathlib.Path(__file__).parent / "data" / "a5-seed7-format-0.3.0.json"


def _format_0_3_0_data() -> dict:
    text = FORMAT_0_3_0_CERT.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == A5_SEED7_DIGESTS["0.3.0"]
    return json.loads(text)


def test_format_0_3_0_certificate_is_refused(capsys):
    data = _format_0_3_0_data()
    refused = verify_certificate(data)
    assert not refused.valid and "version" in refused.message
    assert main(["verify", str(FORMAT_0_3_0_CERT)]) == 1
    # forced, it fails on its top block, and since format 0.8.0 on its
    # missing `q`, which Q and Gamma are built from; the steps that need q
    # name the step that reads it
    forced = verify_certificate(data, force_version=True)
    assert forced.failed_steps() == [
        "q-decomposition", "Q-module", "gamma-perfect", "projections"
    ]
    problems = {s.name: s.problems for s in forced.steps}
    no_q = "level 1: VerificationError: no q (see q-decomposition)"
    for step in ("Q-module", "projections"):
        assert problems[step] == [no_q]
    assert no_q in problems["gamma-perfect"]
    assert main(["verify", str(FORMAT_0_3_0_CERT), "--force"]) == 1
    assert "Traceback" not in capsys.readouterr().err


# E16A5, d=2, k=2, budget 2, seed 7 as format 0.4.0 wrote it.  Format
# 0.5.0 kept the layout and changed the commutator word search, so the old
# certificate is refused on its version alone.  Format 0.8.0 replaced each
# factor's `module_basis` and `q_coords` with `q`.  Format 0.9.0 maps each
# member onto G/W on small degree, so level 1's family acts on 16 points,
# not 60: forced, the old level-1 witnesses no longer parse, and the
# certificate is invalid with no step run.
FORMAT_0_4_0_CERT = pathlib.Path(__file__).parent / "data" / "e16a5-k2-seed7-format-0.4.0.json"


def test_format_0_4_0_certificate_is_valid_only_when_forced(e16_cert, capsys):
    text = FORMAT_0_4_0_CERT.read_text()
    assert _sha256(text) == E16A5_K2_SEED7_DIGESTS["0.4.0"]
    data = json.loads(text)
    assert data["levels"][0]["words"] != e16_cert["levels"][0]["words"]
    refused = verify_certificate(data)
    assert not refused.valid and "version" in refused.message
    assert main(["verify", str(FORMAT_0_4_0_CERT)]) == 1
    forced = verify_certificate(data, force_version=True)
    assert not forced.valid and forced.failed_steps() == []
    assert forced.message == "level data unreadable: point 36 out of range 1..16"
    assert main(["verify", str(FORMAT_0_4_0_CERT), "--force"]) == 1
    assert "Traceback" not in capsys.readouterr().err


# The k2-mixed benchmark family (SL25+E16A5, d=2, k=2, budget 2) at seed 7
# as format 0.6.0 wrote it.  Format 0.7.0 kept the layout and changed the
# choices of conjugators, lifts and lattice order, which the verifier
# accepts in any valid form; format 0.8.0 replaced `module_basis` and
# `q_coords` with `q`; format 0.9.0 puts SL25's quotient on 12 points, so
# forced, its level-1 witnesses no longer parse, as for the 0.4.0 certificate.
FORMAT_0_6_0_CERT = pathlib.Path(__file__).parent / "data" / "k2-mixed-seed7-format-0.6.0.json"


def test_format_0_6_0_certificate_is_valid_only_when_forced(capsys):
    text = FORMAT_0_6_0_CERT.read_text()
    assert _sha256(text) == BENCH_FAMILY_SEED7_DIGESTS["SL25+E16A5", 2, 2]["0.6.0"]
    data = json.loads(text)
    refused = verify_certificate(data)
    assert not refused.valid and "version" in refused.message
    assert main(["verify", str(FORMAT_0_6_0_CERT)]) == 1
    forced = verify_certificate(data, force_version=True)
    assert not forced.valid and forced.failed_steps() == []
    assert forced.message == "level data unreadable: point 13 out of range 1..12"
    assert main(["verify", str(FORMAT_0_6_0_CERT), "--force"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_top_gamma_block_holds_the_marked_generators(groups, a5_cert):
    # Level 0 derives more generators of Gamma than it needs; the top block
    # keeps only the marked ones, in marked order.
    top = construct((groups["A5"],), d=2, k=1, names=("A5",), seed=7, budget=2).top
    assert len(top.marked) < len(top.gamma_gens)
    assert a5_cert["gamma"] == {
        "generators": [{"0": format_cycles(top.gamma_gens[i])} for i in top.marked],
        "order": top.gamma.order,
        "marked": list(range(len(top.marked))),
    }


def _append_unmarked(gamma):
    # a derived generator that 0.3.0 stored and did not mark
    old_gamma = _format_0_3_0_data()["gamma"]
    unmarked = [i for i in range(len(old_gamma["generators"])) if i not in old_gamma["marked"]]
    gamma["generators"].append(old_gamma["generators"][unmarked[0]])


def _swap(gamma):
    gens = gamma["generators"]
    assert gens[0] != gens[1]
    gens[0], gens[1] = gens[1], gens[0]


@pytest.mark.parametrize(
    "mutate",
    [
        _append_unmarked,
        _swap,
        lambda gamma: gamma["generators"].pop(),
        lambda gamma: gamma.update(marked=[1, 0]),
        lambda gamma: gamma.update(order=gamma["order"] - 1),
    ],
    ids=["unmarked-appended", "swapped", "dropped", "marked-changed", "order-off-by-one"],
)
def test_mutated_top_gamma_block_rejected(a5_cert, tmp_path, capsys, mutate):
    data = copy.deepcopy(a5_cert)
    mutate(data["gamma"])
    report = verify_certificate(data)
    assert report.failed_steps() == ["gamma-perfect"]
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_empty_family_certificate_is_valid():
    data = serialize_certificate(construct((), d=2, k=1, names=()))
    assert data["levels"] == []
    assert data["gamma"] == {"generators": [], "order": 1, "marked": []}
    assert verify_certificate(data).valid


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", True),
        ("marked", None),
        ("marked", "junk"),
        ("marked", [0]),
        ("generators", {}),
        ("levels", [{"junk": 1}, 5]),
    ],
    ids=["order-true", "marked-missing", "marked-junk", "marked-index",
         "generators-object", "levels-junk"],
)
def test_empty_family_certificate_mutations_rejected(tmp_path, capsys, field, value):
    data = serialize_certificate(construct((), d=2, k=1, names=()))
    block = data if field == "levels" else data["gamma"]
    if value is None:
        del block[field]
    else:
        block[field] = value
    report = verify_certificate(data)
    assert report.failed_steps() == ["gamma-perfect"]
    path = tmp_path / "cert.json"
    path.write_text(dumps_certificate(data))
    assert main(["verify", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


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
