"""Pinned stdout of ``refute``, ``sign positivize``, ``gaps`` and ``fp``,
as SHA-256 digests.

DFA numbering is pinned transition by transition in
``test_saturate_oracle.py``.  The refuter reads its block scheme off a
minimal DFA, which depends on the language alone.  The last three refute
cases are positive parts with a 6-state loop component and with chains
of 1,500 states.

The ``gaps scan`` cases pin the order of the seeded random draws as well
as the free-product normal forms of the sampled values; the ``gaps
profile`` cases include a finite factor where b is its own inverse.
The ``rat positive`` cases pin the shortest negative member of mixed-sign,
starred and empty sets and of one 45-leaf expression.
``GOLDEN_SCAN_OUT`` pins ``gaps scan --out``: the JSON summary on stdout
and the CSV file it writes.
"""
import hashlib

import pytest

from freerat.cli import main

# 45 leaves: x2⁻¹x1⁻¹ times a tree of 44 positive leaves
BIG_POSITIVE_PART = (
    "(prod (fin (x2^-1 x1^-1)) (prod (prod (prod (star (union (star (fin x1)) (fin x1 x2))) (prod "
    "(star (prod (union (union (fin x2) (fin x1 x1^2)) (fin x1 x2)) (fin x2 (x2 x1)))) (union (union "
    "(union (union (fin x2^2 (x1 x2 x1)) (fin x1^2)) (fin x2)) (star (fin x1 x2^2))) (star (union "
    "(star (fin x2)) (prod (fin x2 (x1 x2)) (star (fin x1 x2)))))))) (union (prod (star (prod (star "
    "(fin (x2 x1) x2^2)) (fin x2^2))) (union (fin x2 (x1 x2 x1)) (union (fin x1 x1^2) (fin x1 (x2 x1 "
    "x2))))) (union (fin x1^2) (union (fin x1^2) (star (fin x1 (x2^2 x1))))))) (star (prod (union "
    "(star (union (prod (star (fin x1^2)) (star (union (star (prod (fin x2 (x2 x1^2)) (fin x1 (x1 "
    "x2)))) (union (union (fin (x2 x1 x2)) (fin x2 (x1 x2 x1))) (union (union (fin x1^2 (x1 x2)) "
    "(prod (fin x2^2) (fin (x2 x1) (x2 x1 x2)))) (star (fin x1))))))) (star (prod (star (union (fin "
    "x2 x1^2) (fin x1))) (fin (x2 x1)))))) (union (star (union (fin (x1 x2) (x2 x1)) (fin (x1 x2)))) "
    "(star (prod (star (prod (star (prod (prod (fin x1^2) (fin x1)) (fin x1 (x2 x1 x2)))) (fin x2 "
    "x2^3))) (union (fin x1) (star (fin (x2 x1)))))))) (star (prod (fin x1 x2) (prod (star (fin x1)) "
    "(fin x2))))))))"
)

GOLDEN = [
    (("refute", "--word", "x1^2", "--expr", "(star (fin (x1 x2)))"),
     "f8757d7ff4063ba0f0cd6d36bdb941d1cbfc17c881361286501480df74905a28"),
    (("refute", "--word", "x1^2", "--expr", "(star (fin x1 x2))"),
     "f12274b44895422aae9c682e5e676e22038c69e9e73327ab80e7e280373382ea"),
    (("refute", "--word", "x1^2", "--expr", "(fin x1^2 x1^4 x2^2)"),
     "65cb4fd4cbf4dd81b5e3acac5db4fdab496a1f50e5abd772ca113c8593d12a5b"),
    (("refute", "--word", "x1^2", "--expr", "(union (fin (x1^-1 x2^-1)) (star (fin x2^2)))"),
     "a942f3a26c6fcab56910e4668feedcb8853cfc7aa77eab634afa108063e05bb2"),
    (("refute", "--word", "x1^3", "--expr", "(star (fin x1^3))"),
     "cda4c9c140c3adbee3f03d00562e489d6d3ab996b7c7337b8f1803982704801d"),
    (("refute", "--word", "x1^2", "--expr", "(prod (fin (x1^-1 x2)) (star (fin (x2^-1 x1 x2 x1))))"),
     "8abe9b808d5e9866d6cac812b558c82f7b85aff605a6d2f4de599706fc873204"),
    (("refute", "--word", "x1^2 x2^2", "--expr", "(star (union (fin (x1 x2)) (fin (x2 x1))))"),
     "2b18114f7809d02b0914117285573a4c7f02ad283e29aa5cd315d3d67a97d4ed"),
    (("refute", "--word", "x1^2", "--expr", "(prod (star (fin (x1 x2^-1))) (fin (x2 x1)))"),
     "030b2ad74dbacf6c4457c773f18450ab289fd99ce14d65741870ef2c1def8d40"),
    (("refute", "--word", "x1^2", "--expr", "(union (star (fin (x1^2 x2^-1 x1))) (fin (x2^-1 x1^2)))"),
     "bfc14724d860d9c52a44dec9602ab36e533e4515a6495de241fd01a7760038f5"),
    (("refute", "--word", "x1^2", "--expr", "(prod (fin (x2^-1 x1)) (prod (star (fin x1)) (fin (x1^-1 x2))))"),
     "375bfb497290134d398d8a4e735faecf7b68d6b6050d33861a0bbba8e9abc07a"),
    (("refute", "--word", "x1^2", "--expr", "(star (fin (x1 x2 x1 x2 x1 x2 x1 x2)))"),
     "2cd47f40a809b1ba45dc1ac28dfe10ffda906d83895a53f5e27449d8c15e0eef"),
    (("refute", "--word", "x1^4", "--expr", "(prod (star (fin (x1^2 x2))) (star (fin (x2^-1 x1^2 x2 x2))))"),
     "77b03795ef4cf2dd1f034223a612304fa14a4b738996a5db47804235391cefbf"),
    (("refute", "--word", "x1^2", "--expr", "(union (prod (fin (x2^-1 x1)) (star (fin (x1 x2)))) (star (fin (x2 x1^-1 x2 x1))))"),
     "985c2a52bb836509b5fade73d29e47ff24f6c19fd82791ff022042c6cc331164"),
    (("refute", "--word", "x1^2", "--expr", "(star (union (fin (x1 x2)) (fin (x2^-1 x1^2 x2))))"),
     "57894d2e4390ac918b4eae32a58d04a4821306ed0ac298d2d31ff854e7012f29"),
    (("refute", "--word", "x1^2 x2^2", "--expr", "(union (union (fin (x2 x1^2)) (fin (x1 x2^-1 x1))) (star (fin x1 x1^2)))"),
     "83677110a48b3031e8558915bb4f4353dfec6d2777159023670d911175286a2d"),
    (("refute", "--word", "x1^2", "--expr", "(union (star (fin (x2 x1^2))) (fin x1^-1 (x1 x2)))"),
     "a991adb11f44b4be1f2d5703c01b25cda40bfbb8f54a4e825bd6ef8aa2fbccac"),
    (("refute", "--word", "x1^3", "--expr", "(prod (star (fin (x2 x1))) (prod (fin (x1 x2) (x2 x1)) (fin (x1 x2^-1 x1) (x1 x2 x1))))"),
     "893d67a28b48aa3493c2ea5f4df3c5dba87abe08b4ea8714a56b05b0726dff0f"),
    (("refute", "--word", "x1^2", "--expr", "(union (prod (fin x2^-1 (x2 x1)) (fin x1^2)) (star (fin x1^2)))"),
     "bdbdd58a21b4277c185819d261320e3bf4b30338ee76a8e432d57f430fdff5b9"),
    (("refute", "--word", "x1^2 x2^-2 x1^2", "--expr", "(union (star (fin x2)) (union (fin (x1 x2) x2^2) (fin (x2 x1^-1) x2^2)))"),
     "865d1f7ab0e9e700d030cc6474891bbc1fe8b6933e2efd5d8e0c9c6d6a103dd6"),
    (("sign", "positivize", "--expr", "(star (fin (x1^-1 x2 x1)))", "--left", "x1", "--right", "x1^-1"),
     "0362a8a8616878f9d9749b864ce8ced13871180e487fba96b8985817a1805d40"),
    (("sign", "positivize", "--expr", "(star (fin (x1^-1 x2 x1)))", "--left", "x1"),
     "7d3d8c4a60f29832573d19e4f4ae87a432d62bc09dd2b0b831728dcef21c53c8"),
    (("sign", "positivize", "--expr", "(fin (x1^-1 x2))", "--left", "x1"),
     "4101ee8c6d6c9dccd29707c214635177565f7ed04b9fdedc004b89ad14df62d2"),
    (("sign", "positivize", "--expr", "(prod (fin (x1^-1 x2)) (star (fin x2)))", "--left", "x1"),
     "bb97f267f4ce555b3003b9eedeae62c4983aa73830b15f5725fc0ac350efb978"),
    (("sign", "positivize", "--expr", "(star (union (fin (x1^-1 x2 x1)) (fin (x1^-1 x2^2 x1))))", "--left", "x1"),
     "e926732e0914d7005525f698ed3df237ae45c4841d9a9366909db2fea56c81a8"),
    (("sign", "positivize", "--expr", "(star (star (fin (x1^-1 x2 x1))))", "--left", "x1"),
     "242cb7b94f533320b37fb01ef02228fced855dc0af76a201b8bd26b02c4ab29e"),
    (("sign", "positivize", "--expr", "(star (fin (x2^-1 x1^-1 x2 x1 x2)))", "--left", "x1 x2"),
     "207b62f9475449eb6650ea3c2dbf9f41a980f3fddf6e81b772798c6069efa515"),
    (("sign", "positivize", "--expr", "(prod (fin (x2 x1^-1)) (fin (x1 x2)))", "--left", "x1"),
     "39b9e906a538891f5b524ecff8cc7fc498bfc1d92bc9f5ad6ad52752defb7217"),
    (("sign", "positivize", "--expr", "(prod (star (fin (x1^-1 x2 x1))) (fin (x1^-1 x2^2)))", "--left", "x1", "--right", "x1"),
     "c7378764c0f74f99e9488a13f3a1c4006bd9e30e10d413b66039a2090447518e"),
    (("sign", "positivize", "--expr", "(union (fin (x2^-1 x1 x2)) (star (fin (x2^-1 x1^2 x2))))", "--left", "x2"),
     "a65114cb5df3aca876efe402341ff3f39c1140159925d55684da9ffcfcd2afc4"),
    (("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "40", "--seed", "1", "--cap-len", "6"),
     "87018bc302c3ad2523d081d6042b462565aba13d8bd80466263948bb76827277"),
    (("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "40", "--seed", "2", "--cap-len", "12"),
     "81fbb7ccbd2c5ebd32cb5eecc894c40a34697422780f2652323a274391cd9a4e"),
    (("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "30", "--seed", "3", "--cap-len", "20"),
     "0bfd5d55ca28490d11d301e82a90f4a9b1e0747e95a3056511677f5b46e4815e"),
    (("gaps", "scan", "--word", "x1^2 x2^2", "--b", "b^1", "--samples", "40", "--seed", "4", "--cap-len", "6"),
     "9ae987f2f6f85ed51d665dfd8713241087d183591423d4ac34f2bdd25da08ce8"),
    (("gaps", "scan", "--word", "x1^2 x2^2", "--b", "b^1", "--samples", "30", "--seed", "5", "--cap-len", "20"),
     "e195ad094956b7bf6ef85f2fa3001915287d6e7a3133a04a1b0996f198affa7e"),
    (("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "40", "--seed", "6", "--cap-len", "14", "--b-mod", "6"),
     "126ceeb0970e0a360d537bcb4ff9f13cde8e9013d37db956cd1314e27b4c859e"),
    (("gaps", "scan", "--word", "x1^2 x2^2", "--b", "b^2", "--samples", "30", "--seed", "7", "--cap-len", "20", "--b-mod", "6"),
     "976a1260136d3d36598f3f80d3e9f1605b729f4fcab48a37ab1b32fa36576d8a"),
    (("gaps", "scan", "--word", "x1^2", "--b", "a^1", "--samples", "40", "--seed", "8", "--cap-len", "10", "--a-mod", "4"),
     "fde3e1d610c883e4bbea8315d8dc64510e6d33dab14af623380496a7cd370cae"),
    (("gaps", "scan", "--word", "x1^2", "--b", "b^-1", "--samples", "40", "--seed", "9", "--cap-len", "16", "--max-exponent", "3"),
     "fbe0aae7c5b50640d578224b46cb8e25f69e8100a7283e81763f3820344986f5"),
    (("gaps", "scan", "--word", "x1^2 x2^2", "--b", "b^1", "--e", "2", "--samples", "30", "--seed", "10", "--cap-len", "8", "--a-mod", "4", "--b-mod", "6"),
     "5a08f31c48a8cb50c8d347dbc76499f26cb37363d97b95bca149fc1f82a1c94f"),
    (("gaps", "profile", "--u", "b a b a^2 b^-1 a b", "--b", "b^1"),
     "bd24316fba3b368ffee1abc4018c00426b6d69ac248b35074ec969c3dc26c180"),
    (("gaps", "profile", "--u", "b a b a^2 b", "--b", "b^1", "--b-mod", "2"),
     "e1e918227c2bef8020a3c84eb920b79bb7b53c180bfd18d6eed188c77d584c03"),
    (("gaps", "profile", "--u", "b^2 a b^-2 a b^5 a^-3 b^2 a b^4 a b^-4", "--b", "b^2", "--b-mod", "6"),
     "43b62587d0fc468dd87ea9af4d4fb4f0d650182427499de1dea40036029be21c"),
    (("gaps", "family", "--u", "a b^2", "--v", "a b", "--n", "5"),
     "1439e5d9b93714c5a389c06e1cb93b9804eceb755f10125e9336abd64de34e94"),
    (("gaps", "family", "--p", "b", "--u", "a^2 b^3", "--v", "a b^2 a b", "--q", "a", "--n", "4", "--e", "3"),
     "957f443a1a9e481ee5565fd3323b2362003dc76c0564d75329d7db0f2f16a05d"),
    (("fp", "reduce", "a b b^-1 a b^3 b^-3 a^-2 b a^5 a^-5", "--a-mod", "4"),
     "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f"),
    (("fp", "reduce", "a^3 b^2 b^4 a a^2 b a^-1", "--a-mod", "3", "--b-mod", "6"),
     "711522535c8c291e511806848e3324777b2d4dfac72e500b3ae1d333b0c56507"),
    (("fp", "cyclic", "b^-1 a^2 b a b^3 a^-1 b^-3 a^-1 b"),
     "4dda7a176317c9fd6add6f79fe457ffb2a4989b1cef3fc744ddb651f922d4ef2"),
    (("fp", "cyclic", "a b^2 a^3 b^-2 a", "--a-mod", "5"),
     "d953e8eec4f48f4b1e29624b310ad5cb76fea318b1abfb3cd0ab86e32e0880a0"),
    (("refute", "--word", "x1^2", "--expr", "(star (union (fin (x1 x2) (x2 x1)) (fin x2^2 (x1^-1 x2 x1))))"),
     "5f74e6b3dad699a94d86070f090a6fcac2d46dcb64654a953e14698375954a54"),
    (("refute", "--word", "x1^2", "--expr", "(prod (star (fin x1)) (fin (x1^-1 x2^1500)))"),
     "dee0f8516b1aed00dc6a7ed14dbadc06eaec798f17369c1f1ac677f50b384ab2"),
    (("refute", "--word", "x1^2", "--expr", "(star (fin (x1^-1 x2^1500 x1) x1))"),
     "f160e1e325826d1e553c584359c1e4da968d2e2744bbfb67e585b7fcd5e86274"),
    (("rat", "positive", "--expr", "(fin (x1 x2^-1) x2)"),
     "8ce3b0918be1c6f30e69abe848e68e5321ac355f0608c6f4c275d49b19b3f300"),
    (("rat", "positive", "--expr", "(star (fin (x2^-1 x1 x2)))"),
     "813a730384036b41b202dfb153462e6190cdfd2166600a767802aca45417af4e"),
    (("rat", "positive", "--expr", "(star (union (fin x1 (x2 x1)) (fin x2^2)))"),
     "90e29733e6fbc9d7c142bfb36635b488f124685424b409951dab46b3b0fb23f4"),
    (("rat", "positive", "--expr", "(fin)"),
     "f34be90d3db581407b31a6ad3a436fac75e41ded30cc876d3b660d05414263fa"),
    (("rat", "positive", "--expr", "(prod (fin) (star (fin x1^-1)))"),
     "9556cc993ed6ef0b7fe53e5a7858c8e0d4182f10032f862cfebd9da9bc85876a"),
    (("rat", "positive", "--expr", "(prod (fin (x1^-1 x2^-1)) (star (fin (x2 x1) x1)))"),
     "4a9d69e854bfd54e981c52ba77d6513ffab79c6647b4be6e80280ff94ae15d6a"),
    (("rat", "positive", "--expr", BIG_POSITIVE_PART),
     "d00a0e7a236ae9fc8c103e17d02b9af997958b6bc7133fbbfa124ddceb958681"),
]


GOLDEN_SCAN_OUT = [
    (("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "40", "--seed", "21", "--cap-len", "12"),
     "4e785053888fe41aa8cbe9baa8dfd245994e2b5504ded6362e93be53f7bf0631",
     "a7212731d6149c79c4c0df94617fe77f0ce760d0596865a30df69c233badeaa8"),
    (("gaps", "scan", "--word", "x1^2 x2^2", "--b", "b^-1", "--samples", "30", "--seed", "22", "--cap-len", "16", "--max-exponent", "3", "--b-mod", "6"),
     "598d48ae076999ff81edee87e1f4ec4ea4b41fcfb8989f08ccf82b8ddc2fa542",
     "a2fa461805b3cf5f239bd1d55acf461c75d96573aedea13f1797089586870841"),
    (("gaps", "scan", "--word", "x1^3 x2^3", "--b", "a^1", "--samples", "30", "--seed", "23", "--cap-len", "10", "--a-mod", "4", "--b-mod", "6"),
     "f0b4efe892dd4d2b43d5a4fcd79795b50ca3309747abd11a6c89f71b5f428b5f",
     "b28de0d59fc4eac7ab2128e9b3f92a0cc0c380c02c1b71f04b1978ccaf54f025"),
]


def _shown(out: str) -> str:
    """The start of a stdout whose digest changed, for the test log."""
    return f"stdout (first 2 kB):\n{out[:2048]}"


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(GOLDEN)])
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, _shown(out)


@pytest.mark.parametrize("argv,stdout_digest,csv_digest", GOLDEN_SCAN_OUT, ids=[f"scan-out-{i}" for i in range(len(GOLDEN_SCAN_OUT))])
def test_scan_out_digests(capsys, monkeypatch, tmp_path, argv, stdout_digest, csv_digest):
    monkeypatch.chdir(tmp_path)  # the summary echoes the CSV path
    assert main([*argv, "--out", "scan.csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest, _shown(out)
    assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == csv_digest


def test_long_coefficient_run_report_stays_small(capsys):
    # the scheme carries two run bounds, not one support syllable per run
    # length, so a 1,500-letter coefficient run costs a few bytes
    argv = ["refute", "--word", "x1^2", "--expr", "(prod (star (fin x1)) (fin (x1^-1 x2^1500)))"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 2048, _shown(out)
