"""The `table --format json` output of 70 classes, and the `classify
--format json` output of two rows at k = 100, each pinned by its sha256.

A change that is meant to keep every verdict and witness must keep these
digests; a change that alters output on purpose records the new ones here,
with the reason in CHANGES.md.  To print the digest of one class:

    PYTHONPATH=src python -m nichols.cli table --k K --n N --format json \\
        2>/dev/null | sha256sum
"""

import contextlib
import hashlib
import io

import pytest

from nichols import cli

DIGESTS = {
    (2, 1): "c9232bf1a9ec8ceedd29bdd4d049438f4a672ed25382c91e02916b9c6a483668",
    (2, 2): "2978f753ebc8a1e413093a8d60883a5a2e27a6ae39e5444b9e28a87d5ae8e648",
    (2, 3): "9a83700b11d0faabcebf7f4c75f2eb15f32bd57cf68a8481f0ef5fe9f8e341c4",
    (2, 4): "171001ab2cb2e40bcf0b12daf94bd5fa9260ae5f64ca148b8e5d4f4b738b3c4c",
    (2, 5): "72eb28569e254e7385608b4f645a27f66ea70380581d11689b36efe56210d725",
    (2, 6): "306a7da0b4b9eb5dba1dd5a0649773bbfd4447953c9682f6be9fb4d091ddb7bb",
    (2, 7): "5dd24612c4d1fb3344c9d041f8de678c6f305c6fe7c95c6859f5e74fca17905b",
    (2, 8): "92eb5213f66cac2b30662355f9bc861ee2556ad81d2254615c12cdfd625aad73",
    (2, 9): "e55e233cdd0f9910322cb24a82fa33fe897082d294f3e0b72de4634668ae133a",
    (2, 10): "1b452bdb514ab1fd465eaad4a8d0abee32ce519f74b223271945cae1ab3dc4a5",
    (2, 11): "120bd43442de444d6e7f4c933185db4b844fcc08c9d25d1f2f0b0c51e2855b37",
    (2, 12): "647068c2ae283fd30088de391e7d84134f3d55fe34b553a298fe346ac676846f",
    (3, 1): "ff923443d410857b90b71bac3dad6cd4d83342cd4520baca5b258ab022bca3b0",
    (3, 2): "923f87dd5965e3bafb239459ddd7b4f14945e8951a941464223257810f4bbff8",
    (3, 3): "40090e5aa87c522ce1018478dd64db2ec296404596d1733bd4c2c2f6776a2203",
    (3, 4): "ec2112ee50fffa80a3679efe59761df126badfa820dfc0f11906e29835e738e4",
    (4, 1): "5a9a499818c065afc2a10f7257c9dc042f2f04173d5f688d24025ba8d9a9af2b",
    (4, 2): "0322e35dfac855e2bedb0364ae72ed9c499e4a49f130b8547371a9270a0de52d",
    (4, 3): "7b544ec074499018e8de3d2733cb9cd1de369846a7a551ddc714090325840557",
    (4, 4): "9fb014537d23b38bdbdb33476105b679d06d2cee28b82f5653aded21fa119285",
    (4, 5): "2e834690477783aafefa8585ac153420dcac4f932caf18412fac59bcffca7e60",
    (4, 6): "06ae3547d8361dc371e025ee55b4ad14b61d131a450fb9c09dacd043542bd1b8",
    (4, 7): "0862c85f8961cf6e3d6066806c290c916fd04e135dbd0ca75dc5151d0db1f51f",
    (4, 8): "388535971d225a74763399264bc6d977757aec006cc25f56f1624235b9340d13",
    (5, 1): "ef1eb931612f2c229079e3ce6d5ada6cdf40c351b02f3561e8bcea0c6acbba2a",
    (5, 2): "166c9aa8e20891b66c0116369275846a5f1dbc4fcc90fa05f135fc488089d5d3",
    (6, 1): "ff4573fa06b96c1b7f670af3bdb31ba6ada787a5af839e5e6e73a6ee835a604c",
    (6, 2): "422ba0ce78237ddddf961e8fe8af7870a3e3347d6d6d0bd25e994f5faa0efb31",
    (6, 3): "b45a063d378526837be1c9148854f2bd70bfc8fc27df8ed2b2052bd6dc549b98",
    (6, 4): "19e352d9a919c6e044bb45f02085d3f1d1fbf2072295c91c0aa0fa9f6186e33b",
    (6, 5): "3bb8e1e4a08f053131912cbe2b2154ecdb0436f89c8ebcf33cab9344ae773e53",
    (6, 6): "e487d9bb80625d6c2a51b842eaa6357eca02b4c01d93192ec0b1700180f9f4e8",
    (6, 7): "66a43e0a1469c7ca285eb7cf55108c1cae297a768efc6af4647c9ced9107218d",
    (8, 1): "c8a15e20be9c1a922a8e67a17bc1de2f3059673ee860e3506c7dd308ee8e48d2",
    (8, 2): "b770b6044a40b24c93d4f04946262132d289176e8b97a5d374e93660e0e45864",
    (8, 3): "892c08206c4bbcb7f3d3f06cdded1e462a76d6a03d9815a901cb1e21c2783eda",
    (8, 4): "fafc4425cdbfbe575655115738ab42785ae766084da37eacc7603add2ab449f6",
    (8, 5): "17be067f878dd9fa0da18f233841b71dbb072c1df636846f4006b7ca629a6966",
    (10, 1): "5df69e2c71e1766f4a24dc9f77e9e380f52696d4c0f096577cf8e2f432dcd14f",
    (10, 2): "13d1327d118351e01cc29d7aed0abcf2d37e973bab444077b2e3fb5735bd1dcd",
    (10, 4): "b5a81fbef496b6fa7623d54a8be2f8736d181b5f0db2af09ab1253bc3bf9a627",
    (12, 1): "5dac3de4e325a4504b9197b10faa2dc6adcfd8169264f6be1af0271b48d533c1",
}

# the larger sweeps, run one after another on a 2-vCPU VM: about 1 s each
# for (2,14) and (4,9), 1.5 s for (8,6), 2 s each for (2,16) and (6,8),
# 2.5 s each for (2,18) and (4,10), 3 s for (8,7), 4.5 s each for (4,11)
# and (10,6), 4-6.5 s each for (2,20), (4,12) and (6,9), whose reports
# reach 77-112 MB, and 4.5 s for (4,13), whose report is 207 MB; on the
# frontier, about 3 s each for (8,8) and (12,6), 4 s each for (6,10) and
# (10,7), and 5 s for (2,22), whose reports are 66-191 MB, 5-6.5 s for
# (4,14) and 8 s for (2,24), whose reports are 401 and 391 MB: run with
# -m slow
SLOW_DIGESTS = {
    (2, 14): "6ee8afaf27c5762c347dc85b2767cf9801632b2cdb21bd66e0b0ac0dc8dc2c05",
    (2, 16): "68175caa678b5844791a60c776d5d9522eebb4d18732e2a15cad4dcf6609f76e",
    (2, 18): "cde643ab719b1bea93d4930997b000e05335ea976809d396e7f9dab804001639",
    (2, 20): "a4c830176e44f8265aa44a3ea3f7aa713a13a0231572ca147b2277f11d1f0414",
    (2, 22): "2d282bac796afb5004f879de8f5c652d5cfce78ca627b35ed2fb0a73a1bbe76b",
    (2, 24): "08032883970ab1509890174273da0e0095e040f97ba79e02f9ab43c5d0e5ab8b",
    (4, 9): "c537a94a05b688e059688bc2fd80d007b5d7416e2a95ec557e2c71b48a8c29e9",
    (4, 10): "1f594bbcf6e97d319d110068a228aad923e629fa80ed76a0630df6dc8f839573",
    (4, 11): "e6d26c5f60fdd013e176ab7d38ce195fc5f7e01c1d3d7aef00e9df5428c34759",
    (4, 12): "220dda6b8071e371c23c76109ecd39c16c3163b9b8fd772ecc4096afd43f391a",
    (4, 13): "97ff79d7d3cb2f955dda40eaa2b4b9459e06d5fab214a7d25718682333860471",
    (4, 14): "e10fb367101d08ab20c8844d716c380f4d38450dfbb2ed936155f650c1aff22c",
    (6, 8): "cbb90dd89ef75bb45110e8cf95ab0f135f13aab5e91faad2c06df975188cfbcb",
    (6, 9): "4a6e2d2e046355033b46a1f273aaee6e70ee54e1dae3146059237f052cd2658a",
    (6, 10): "3a5f7dfa42f81802a7a3d9814f31506bec451090b71114ba4ba44fb392345b11",
    (8, 6): "e5f6ec3f7b4b608f9cea13e27a0dd431b7016076ff55ca35f856a88ba44c8f6b",
    (8, 7): "03ed866b3d977e66fc615347d6561791605371a48459a6a5e810e26390d5631e",
    (8, 8): "28caf8ae06dc844faefd554f7e47c08ff990ebd618d3a6cebf2c198bcf3e02d2",
    (10, 6): "24912e444957b6cfbca709f24d102cdc1748813bd56170ace3442040f9a77e10",
    (10, 7): "93f1d93c1d6b6ea6cb8a8bc467026803054837518f3b7df7d4f5ee7b42964129",
    # 195,910 rows, a 359 MB report
    (10, 8): "b682bdb79d236fae437eb31e9f0978cb6bd0d89d11615f2196301f7d22608baa",
    (12, 6): "02fea4e4075442ce67789432be21016b8b07dd0cc085bd9150c1222baa4b8f82",
    # 5,890 rows whose witnesses are rectangles on the rotation quadruple,
    # |H| = 450
    (30, 3): "910c86f0f3017cb9503aefb9b62dceab7e35e24a35df6ad1bedadc7c1cde54f4",
    # on the rotation quadruple at large k, |H| = 128, 450 and 1,250; each
    # read chi on the |H| / k coset representatives of <pi> only
    (16, 6): "308f1ae68813dab0ffd0ced0bab9bc96ff7b71381dc3ee7cf2ff8f093781cb67",
    (30, 4): "314488f473a54a76be44244f516a1d3a27b25ac50a4c2015c58a6709cdc8d9f6",
    (50, 3): "61e68fc529d4aa2859257e4b79de4aebc4ebc084b44ada93eb132dca59907c9e",
    # |H| = 800 and 2,450 on the rotation quadruple: 158,670 and 64,610
    # rows, about 3 s and 2 s, whose reports are 168 and 56 MB
    (40, 4): "c3f5877a1244210c8857fb8387ca8686d596c365254fc6b7e58f18da79a56355",
    (70, 3): "18fa57c76ac0d3beb27ba3a67593173759d58f33413ffe094d66ed310b5f60e2",
    # 20,300 rows: the 103 past the scalar gate read their multiplicities
    # on the basis of Q(zeta_200), and the 4 negative ones among them also
    # their products of character values at the partner labels, as terms
    (200, 2): "a2a38415c9c9dc0d4d87a72997cdcfa2e05bd9e654318ab871b85e8a234f7f07",
}

# `classify --k 100 --n 2 --format json` past the scalar gate, on the
# rotation quadruple with |H| = 5,000: a negative row and an infinite one
# (alternating cycle); -m slow
SLOW_CLASSIFY_DIGESTS = {
    "chi=(25,25)": "556ada474553a365c679e7b3421f393de0e71de43797c22b4c5ef8bc5167d779",
    "chi=(26,24)": "6eb0b80e9be5f1b63d900ac121db22f53992814f1043035b37e0331ce05d02ba",
}


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it,
    so that a report of hundreds of MB is never held whole."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)


def _assert_digest(argv, digest):
    out = _Digest()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    assert out.sha256.hexdigest() == digest


@pytest.mark.parametrize("k,n", sorted(DIGESTS))
def test_table_json_matches_its_digest(k, n):
    _assert_digest(["table", "--k", str(k), "--n", str(n)], DIGESTS[k, n])


@pytest.mark.slow
@pytest.mark.parametrize("k,n", sorted(SLOW_DIGESTS))
def test_slow_table_json_matches_its_digest(k, n):
    _assert_digest(["table", "--k", str(k), "--n", str(n)],
                   SLOW_DIGESTS[k, n])


@pytest.mark.slow
@pytest.mark.parametrize("rep", sorted(SLOW_CLASSIFY_DIGESTS))
def test_slow_classify_json_matches_its_digest(rep):
    _assert_digest(["classify", "--k", "100", "--n", "2", "--rep", rep],
                   SLOW_CLASSIFY_DIGESTS[rep])
