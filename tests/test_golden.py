"""CLI stdout is byte-identical to the output recorded in DIGESTS.

Each entry is the sha256 of one command's stdout.  A change that alters any
of these outputs on purpose records the new digests with the reason; every
other change must leave them as they are.
"""

import hashlib

from opinv.cli import main
from opinv.inversion import ALL_IDENTITIES

_REAL_RHS = (
    '[{"var":"x","coeffs":["0","1"]},{"var":"x","coeffs":["2","0","-1/3"]},'
    '{"var":"x","coeffs":["1/5"]},{"var":"x","coeffs":["0","0","0","1"]},'
    '{"var":"x","coeffs":["-7/2","1"]}]'
)
_GAUSSIAN_RHS = '[{"var":"x","coeffs":["1/2+1*i"]},{"var":"x","coeffs":["0","-2/3*i","1"]}]'

ARGVS = [
    ("suite", "--seed", "0"),
    ("suite", "--seed", "7"),
    ("eval", "--family", "hermite", "--n", "5"),
    ("eval", "--family", "laguerre", "--n", "4", "--alpha", "1/3"),
    ("eval", "--family", "jacobi", "--n", "3", "--alpha", "1/2", "--beta", "-1/3"),
    ("eval", "--family", "gegenbauer", "--n", "4", "--lambda", "3/2"),
    ("eval", "--family", "chebyshev_t", "--n", "5"),
    ("eval", "--family", "chebyshev_u", "--n", "5"),
    ("eval", "--family", "legendre", "--n", "5"),
    ("eval", "--family", "charlier", "--n", "4", "--a", "2/3"),
    ("eval", "--family", "meixner", "--n", "3", "--beta-m", "1/2", "--c", "1/3"),
    ("eval", "--family", "meixner_pollaczek", "--n", "3", "--lambda", "1/2",
     "--phase", "-3/5,4/5"),
    ("solve", "--family", "laguerre", "--alpha", "1/2", "--rhs", _REAL_RHS),
    ("solve", "--family", "hermite", "--rhs", _REAL_RHS),
    ("solve", "--family", "hermite", "--rhs", _GAUSSIAN_RHS),
    ("solve", "--family", "jacobi", "--alpha", "1/3", "--beta", "-1/4", "--rhs", _REAL_RHS),
    ("invert", "--identity", "charlier_inv", "--a", "1", "--size", "4"),
    ("invert", "--identity", "jacobi_inv", "--alpha", "1/2", "--beta", "1/3", "--size", "4"),
    ("gen-hermite", "coeffs", "--max-n", "6"),
    ("gen-hermite", "check", "--max-n", "6"),
    ("gen-hermite", "kernel", "--max-n", "6"),
    ("gen-hermite", "coeffs", "--max-n", "6", "--odd-alphas", "1/2,-1/3,2"),
    ("gen-hermite", "check", "--max-n", "6", "--odd-alphas", "1/2,-1/3,2"),
    ("gen-hermite", "kernel", "--max-n", "6", "--odd-alphas", "1/2,-1/3,2"),
] + [("verify", "--identity", identity, "--pit", "--size", "3") for identity in ALL_IDENTITIES]

DIGESTS = {
    'suite --seed 0':
        "2b6338c15298d8c01f2401ea190301631249abff83b190cd31524b68b391bec6",
    'suite --seed 7':
        "730f4126926bb973733062e1d0fb368ed9e0ebbd90b7100e57a84aaf4c542b4f",
    'eval --family hermite --n 5':
        "4fa5814d8b423eb52629462c80e956f8c84e3635cbcc47d9c2eb3f756a07f49c",
    'eval --family laguerre --n 4 --alpha 1/3':
        "f08915b227a5416a9fe63a9ae97634b68d4bf549ca9b20809c8b3ac2d37337df",
    'eval --family jacobi --n 3 --alpha 1/2 --beta -1/3':
        "c67d6db7f988f0191d32b8ba2ff8e2f92a451bd43929c3a82408833c331f8d91",
    'eval --family gegenbauer --n 4 --lambda 3/2':
        "6f6ad944c86c592bd82b94d24f5d252cc5abe7ee625faf3d6530e7444b39fd10",
    'eval --family chebyshev_t --n 5':
        "d13b1d205b7694118bb881976e925b606dc50f78bb76fa28a1e2ff09ce77854b",
    'eval --family chebyshev_u --n 5':
        "5600b54d439591af169e93d853f1fb006f0ca7a9a7b447b45c2416730404d43e",
    'eval --family legendre --n 5':
        "5d618aab47d4bd4b763ac6ac946c07beaea99f94cd3478f2b65247e0d1fe5be2",
    'eval --family charlier --n 4 --a 2/3':
        "9d43f129fa8c89a441dd20d71a54af5663f285a77372792f1edd3e58b150b017",
    'eval --family meixner --n 3 --beta-m 1/2 --c 1/3':
        "3bbe1cbddfbc21c9dfb607d296e4769392c06cae19fbfe04d55b69a889e4ba5e",
    'eval --family meixner_pollaczek --n 3 --lambda 1/2 --phase -3/5,4/5':
        "fc45637a56b01a5fc42d9fb120853473fac77d65c1a038a63af11efe2a928031",
    'solve --family laguerre --alpha 1/2 --rhs [{"var":"x","coeffs":["0","1"]},{"var":"x","coeffs":["2","0","-1/3"]},{"var":"x","coeffs":["1/5"]},{"var":"x","coeffs":["0","0","0","1"]},{"var":"x","coeffs":["-7/2","1"]}]':
        "bfe942de60cabb420a57b179d5a86cc004b334a487fb34cb47fc08217f59499f",
    'solve --family hermite --rhs [{"var":"x","coeffs":["0","1"]},{"var":"x","coeffs":["2","0","-1/3"]},{"var":"x","coeffs":["1/5"]},{"var":"x","coeffs":["0","0","0","1"]},{"var":"x","coeffs":["-7/2","1"]}]':
        "8522ee1b47ade70818a03c8aed46243f547ceff7cbd8f52e9ecc6ea9218d94be",
    'solve --family hermite --rhs [{"var":"x","coeffs":["1/2+1*i"]},{"var":"x","coeffs":["0","-2/3*i","1"]}]':
        "fa6751c0f221a7159f11dcc5e3800ab15f18f153331bf0db11df49b5f63c3681",
    'solve --family jacobi --alpha 1/3 --beta -1/4 --rhs [{"var":"x","coeffs":["0","1"]},{"var":"x","coeffs":["2","0","-1/3"]},{"var":"x","coeffs":["1/5"]},{"var":"x","coeffs":["0","0","0","1"]},{"var":"x","coeffs":["-7/2","1"]}]':
        "10dc3f202b1523d94725ab2cc6bb64ca90f808d6bac5bf055d89a2d3b17e079c",
    'invert --identity charlier_inv --a 1 --size 4':
        "6a4cd1fba16b6aa6036957a24921d1b7e23b75781c844f8fc15b749363051639",
    'invert --identity jacobi_inv --alpha 1/2 --beta 1/3 --size 4':
        "0549c098c5fb4d4adb6dac680af361a40e0dfdf68972dd371de27765526b5f08",
    'gen-hermite coeffs --max-n 6':
        "b4990edd74b21526ce42f803b328595203f11a5a66072f3e5a38308d01c56fd7",
    'gen-hermite check --max-n 6':
        "53d4455013ef25b39850c43cf5698c09c5afd1a70c7f065f2b98d4be7e7fb7aa",
    'gen-hermite kernel --max-n 6':
        "f9cce9558bdf84f3cda68729da7fb4b914764c87266737ffb6d735e7bceef3ce",
    'gen-hermite coeffs --max-n 6 --odd-alphas 1/2,-1/3,2':
        "d8fcd43524088301732756ad57be107a447cb12916b2cda2434e7502af1a63c0",
    'gen-hermite check --max-n 6 --odd-alphas 1/2,-1/3,2':
        "53d4455013ef25b39850c43cf5698c09c5afd1a70c7f065f2b98d4be7e7fb7aa",
    'gen-hermite kernel --max-n 6 --odd-alphas 1/2,-1/3,2':
        "f9cce9558bdf84f3cda68729da7fb4b914764c87266737ffb6d735e7bceef3ce",
    'verify --identity charlier_inv --pit --size 3':
        "31190617c144ba85e226831ca9f3103b8917489079d99bf2ae7f5a5c97293b6e",
    'verify --identity laguerre_inv --pit --size 3':
        "831436a4a8dbc3cf574835214d3ce13d3b15b1497f309b92799f4117f20ea80e",
    'verify --identity laguerre_inv_plain --pit --size 3':
        "ad0fe9c6ba6f8b451d9cb0b04a9c22ec78ef7159f34345503c64faaf5199ca75",
    'verify --identity jacobi_inv --pit --size 3':
        "ab943124b3ae2beb85215366e69bbbb7322fb8624dca630eb700b0af0cdc8ba8",
    'verify --identity jacobi_from_meixner --pit --size 3':
        "3734ecb944313ac788d8dcff55ad9d7205fdb4d255833b03cb1b69761e54c80f",
    'verify --identity jacobi_from_ultra --pit --size 3':
        "b7420a4af331ecc8bf17a4c5c1384f53ee475f855b06a5629785dc5a2937f2ab",
    'verify --identity ultra_inv --pit --size 3':
        "716239560edb69c8d92075eb0ab3a2403ab9c0097d1517922596997a6e1d506a",
    'verify --identity meixner_inv --pit --size 3':
        "fcb44d0e163c3e0909217726b16a54b599925665fdced341f76ed39dfeea322e",
    'verify --identity mp_inv_reflect --pit --size 3':
        "c026cdef427cd105e5156db3ee720428ac303cfae0cd67f1c16954ef2e3c3d25",
    'verify --identity mp_inv_phase --pit --size 3':
        "2131926b3e79c126eaf393e53e517d4d453d57e71fa8525388cf204173a57681",
    'verify --identity legendre_limit_inverse --pit --size 3':
        "20e0171d53e43418ee12852c896bfe60fb0a8983666936e99a5ae949034ad7c2",
    'verify --identity chebU_banded_inverse --pit --size 3':
        "17bd65e77c944c6c885251ea7582f0a0ffaa1f42f074a4d3c9a1ac1bd30294a6",
    'verify --identity chebT_inverse --pit --size 3':
        "985c75630a8c5b7f98db06098c45c9bf9e38556a193c34f6102cdf82e2ba700c",
    'verify --identity hermite_conv --pit --size 3':
        "4df2c7b0e75eab2b1b5f340d45b1c56e9de29ba6c9066d5da55faa4bdf886d72",
    'verify --identity legendre_conv_u --pit --size 3':
        "bd31b42171e3ec3938bfa0704011fda86bdcc78dc3dd3c6cc8a6929d1787e20c",
    'verify --identity chebT_geom_conv --pit --size 3':
        "cbc9ae1c663adf3bd0b82235e34dc9f5fe6cc09844c18e0e9052aa05864600a1",
    'verify --identity chebU_recurrence --pit --size 3':
        "1560685b88183811605de612a045eeb79f0e64cb9c3bb88f9bee888679b811e5",
    'verify --identity chebTU_relation --pit --size 3':
        "4b0f851b63d5c59f6685613a1d4860a8f89d10570d4bbc6cfce53d918b456a14",
    'verify --identity jacobi_two_var --pit --size 3':
        "15fe011ac15369e014f36d2dca9682942d0e005f2fd50e23acb31c0f0a4fa83a",
}


def test_cli_stdout_matches_recorded_digests(capsys):
    mismatched = []
    for argv in ARGVS:
        code = main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        key = " ".join(argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != DIGESTS.get(key):
            mismatched.append((key, code))
    assert mismatched == []
