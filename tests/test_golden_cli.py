"""Pinned stdout of ``refute`` and ``sign positivize``, as SHA-256 digests.

The refuter rebuilds an expression for a positive part by state
elimination over the states of ``intersect``, so the last five refute
cases change when ``intersect`` numbers its states in another order.  DFA
numbering itself is pinned transition by transition in
``test_saturate_oracle.py``.
"""
import hashlib

import pytest

from freerat.cli import main

GOLDEN = [
    (("refute", "--word", "x1^2", "--expr", "(star (fin (x1 x2)))"),
     "b5a6d50c33f10a52916444922726acfddebb2236057473755aa4632751bf0228"),
    (("refute", "--word", "x1^2", "--expr", "(star (fin x1 x2))"),
     "7d73c6cd820a7ce7538cc12b31d32aea353dddafd15e0b56c3e9be96d9ab2795"),
    (("refute", "--word", "x1^2", "--expr", "(fin x1^2 x1^4 x2^2)"),
     "fb25e9358c323b4947cbda26bc69bb670a883d8d8ec81eba00bb6b55a4958827"),
    (("refute", "--word", "x1^2", "--expr", "(union (fin (x1^-1 x2^-1)) (star (fin x2^2)))"),
     "501a2376917ff6ec11b97f026778ef482c0b6fcf8e27338490c885b91dc8a255"),
    (("refute", "--word", "x1^3", "--expr", "(star (fin x1^3))"),
     "062a5261d7ae901888b9008a3ab819d0b107a407f1222b248f7a429df9d9340c"),
    (("refute", "--word", "x1^2", "--expr", "(prod (fin (x1^-1 x2)) (star (fin (x2^-1 x1 x2 x1))))"),
     "041038e952dadbe89d0800ad005ae06d79eb9a9045f243593b2e6dc3f7c73ad4"),
    (("refute", "--word", "x1^2 x2^2", "--expr", "(star (union (fin (x1 x2)) (fin (x2 x1))))"),
     "949a210b39fde0e810d6fb9e905a5030c0bbe3c9ccc77caaec69614919588da0"),
    (("refute", "--word", "x1^2", "--expr", "(prod (star (fin (x1 x2^-1))) (fin (x2 x1)))"),
     "bd617ad4149006d96adf10e75413723a61be626fe94cfc7b195d8a74e5863e24"),
    (("refute", "--word", "x1^2", "--expr", "(union (star (fin (x1^2 x2^-1 x1))) (fin (x2^-1 x1^2)))"),
     "1adafa216b28f0cf2bfc166a5fe7c0c9206d489a68414f3c8dfe5968599d75aa"),
    (("refute", "--word", "x1^2", "--expr", "(prod (fin (x2^-1 x1)) (prod (star (fin x1)) (fin (x1^-1 x2))))"),
     "2dc2c4476e12ad09d2ef421e33de86c96aed9675d1cde7154d54d74e080fb51d"),
    (("refute", "--word", "x1^2", "--expr", "(star (fin (x1 x2 x1 x2 x1 x2 x1 x2)))"),
     "7f066e3b3f0e0eb03c13fead60a6bd7d107e1d9690ca8e7598e615b620dd990a"),
    (("refute", "--word", "x1^4", "--expr", "(prod (star (fin (x1^2 x2))) (star (fin (x2^-1 x1^2 x2 x2))))"),
     "bc4da7241ebbb75f12a54c3ee42946e6f3b3d15935dbec3e21002c81e3a1b96c"),
    (("refute", "--word", "x1^2", "--expr", "(union (prod (fin (x2^-1 x1)) (star (fin (x1 x2)))) (star (fin (x2 x1^-1 x2 x1))))"),
     "e6ab9e9f310f7f6c2b9cca2a8cb1afc1dec797ef9aa3664d6a4e1e9abb6a13c4"),
    (("refute", "--word", "x1^2", "--expr", "(star (union (fin (x1 x2)) (fin (x2^-1 x1^2 x2))))"),
     "7d3ee32d5c6ab378986220687168082906546b458a99e3a457fdc43762b103f2"),
    (("refute", "--word", "x1^2 x2^2", "--expr", "(union (union (fin (x2 x1^2)) (fin (x1 x2^-1 x1))) (star (fin x1 x1^2)))"),
     "db191b47c668879aacd501016f95af40051fd5af38f2cf74f9209b7c4ca9a41e"),
    (("refute", "--word", "x1^2", "--expr", "(union (star (fin (x2 x1^2))) (fin x1^-1 (x1 x2)))"),
     "692a11590403bd54a33e6b5f86e7f84929559e8fca02dbe2676063ae57604fef"),
    (("refute", "--word", "x1^3", "--expr", "(prod (star (fin (x2 x1))) (prod (fin (x1 x2) (x2 x1)) (fin (x1 x2^-1 x1) (x1 x2 x1))))"),
     "c3ddef5bc4f7fc435f7c45dbaa8107f75b36f4a8f3dbd0c2806c45d31a3769d8"),
    (("refute", "--word", "x1^2", "--expr", "(union (prod (fin x2^-1 (x2 x1)) (fin x1^2)) (star (fin x1^2)))"),
     "615f9a919e21a278feb2a659f981fcc1d4aa82d75f57f6fd8ebdb78a2fddc08d"),
    (("refute", "--word", "x1^2 x2^-2 x1^2", "--expr", "(union (star (fin x2)) (union (fin (x1 x2) x2^2) (fin (x2 x1^-1) x2^2)))"),
     "d873da842097691f7221849072b854bac94c8b98bb757136485a563820d6c665"),
    (("sign", "positivize", "--expr", "(star (fin (x1^-1 x2 x1)))", "--left", "x1", "--right", "x1^-1"),
     "0362a8a8616878f9d9749b864ce8ced13871180e487fba96b8985817a1805d40"),
    (("sign", "positivize", "--expr", "(star (fin (x1^-1 x2 x1)))", "--left", "x1"),
     "ccef86efcff3dadce292456ef20509f40883e8122493ccc89726c28711402405"),
    (("sign", "positivize", "--expr", "(fin (x1^-1 x2))", "--left", "x1"),
     "4101ee8c6d6c9dccd29707c214635177565f7ed04b9fdedc004b89ad14df62d2"),
    (("sign", "positivize", "--expr", "(prod (fin (x1^-1 x2)) (star (fin x2)))", "--left", "x1"),
     "56ce6716ba87bb23bb34a73fc30bc690c8307d79369f54e5a3b5b7f57a38472e"),
    (("sign", "positivize", "--expr", "(star (union (fin (x1^-1 x2 x1)) (fin (x1^-1 x2^2 x1))))", "--left", "x1"),
     "67c7f1a7eae8dd7358677da2f30fed428814dc74dbbd9b55fe049c30ff0476f7"),
    (("sign", "positivize", "--expr", "(star (star (fin (x1^-1 x2 x1))))", "--left", "x1"),
     "8a0ce0b8874255ba863e09d8426df4a0acbf1d13a061f9fd2813295e0339b812"),
    (("sign", "positivize", "--expr", "(star (fin (x2^-1 x1^-1 x2 x1 x2)))", "--left", "x1 x2"),
     "d293d2f5706f38de1aee8cd8fe44b39412d881b026ce1332ed67b83909f17002"),
    (("sign", "positivize", "--expr", "(prod (fin (x2 x1^-1)) (fin (x1 x2)))", "--left", "x1"),
     "7ae99366b11f46e496488b55d61a81b9ba95f2cdedca85f2f7e5a06eeb146440"),
    (("sign", "positivize", "--expr", "(prod (star (fin (x1^-1 x2 x1))) (fin (x1^-1 x2^2)))", "--left", "x1", "--right", "x1"),
     "4212c9c4d97e7b1954f85a344a62381f5014d7c9f327c73e57cc1da94eb7dca7"),
    (("sign", "positivize", "--expr", "(union (fin (x2^-1 x1 x2)) (star (fin (x2^-1 x1^2 x2))))", "--left", "x2"),
     "d36d7351a06d25a3c81f5ca17078109e5dbdcc0211a77f91e87c2c48f8a44413"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(GOLDEN)])
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
