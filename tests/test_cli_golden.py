"""CLI golden matrix: exit code and sha256 of stdout for fixed commands.

Covers every subcommand on both sharp bounds and on the gaussian band
(d = 1), the constant radius 0.2 and the upper and lower product models,
including evaluation at the square's corners, where the gaussian radius is
undefined and the value falls back to the sharp bound.  The digests pin
the 17-significant-digit output bit for bit, so they hold for the platform
they were recorded on (x86-64 Linux, CPython 3.11, numpy 2.4, scipy 1.17);
a different libm or numpy build may move a last digit and fail this test
without any change in the code.
"""

import hashlib

import pytest

from fhsmooth.cli import main

GAUSS = '{"kind":"gaussian_band","d":1.0}'
CONST = '{"kind":"constant","r0":0.2}'
UPPER = '{"kind":"product","p":[0.25,0,-0.5],"epsilon":0.2}'
LOWER = '{"kind":"product","p":[1.0],"q":[0.25,0,-0.5]}'
SKEW = '{"kind":"product","p":[0.25,0,-0.2],"epsilon":0.3}'
WIDE = '{"kind":"product","p":[0.9],"epsilon":0.9}'

# name -> (argv, exit code, sha256 of stdout)
GOLDEN = {
    "eval-m": (
        ["eval", "--copula", "m", "--u", "0.3", "--v", "0.5"],
        0, "2a79a26a6b67ac384385cbadd8d87065faa1eb879a1bee0e59b6cdd04a03ddf1",
    ),
    "eval-w": (
        ["eval", "--copula", "w", "--u", "0.7", "--v", "0.8"],
        0, "8d5c1b5a87c51f970807fc0c2057b3ab3aaf11638ab667dc5956edc8f5bcf138",
    ),
    "eval-gauss": (
        ["eval", "--copula", "mbar", "--radius", GAUSS, "--u", "0.5", "--v", "0.5"],
        0, "83fa3981f1ad91218a6a0b8a1658496b4c40e77184fdb0313068f155af6b3848",
    ),
    "eval-gauss-corner00": (
        ["eval", "--copula", "mbar", "--radius", GAUSS, "--u", "0", "--v", "0"],
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ),
    "eval-gauss-corner10": (
        ["eval", "--copula", "mbar", "--radius", GAUSS, "--u", "1", "--v", "0"],
        0, "4795af252ad2aeb36770791c915bf9230e428a910ff53bc9542c090de38f8576",
    ),
    "eval-const": (
        ["eval", "--copula", "mbar", "--radius", CONST, "--u", "0.45", "--v", "0.55"],
        0, "c59500d50a5cee9569eadc6b5efac79a9228cae32e6309c652fa87018a0f6c3c",
    ),
    "eval-upper": (
        ["eval", "--copula", "mbar", "--radius", UPPER, "--u", "0.3", "--v", "0.35"],
        0, "2afe325f561516e2aec88d7f2cda0329cc0829d55e2d71da563b5993e5b61975",
    ),
    "eval-gauss-corner11": (
        ["eval", "--copula", "mbar", "--radius", GAUSS, "--u", "1", "--v", "1"],
        0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    "eval-lower": (
        ["eval", "--copula", "wbar", "--radius", LOWER, "--u", "0.5", "--v", "0.5"],
        0, "1d7d5bdb35655434695a9711af255becc22f71b9c0ea416ece7baa512ab32194",
    ),
    "eval-lower-corner10": (
        ["eval", "--copula", "wbar", "--radius", LOWER, "--u", "1", "--v", "0"],
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ),
    "density-const": (
        ["density", "--copula", "mbar", "--radius", CONST, "--u", "0.5", "--v", "0.5"],
        0, "b44e9ffa0cc7f58e03608e940a3aba7d83e58bb5b18e52a38c7d61b303bb4c64",
    ),
    "density-gauss": (
        ["density", "--copula", "mbar", "--radius", GAUSS, "--u", "0.55", "--v", "0.5"],
        0, "a1d2e258994902713845e370d8a65fcb18234b5b4eeb17728ac10dfabbf2f72b",
    ),
    "density-lower": (
        ["density", "--copula", "wbar", "--radius", LOWER, "--u", "0.4", "--v", "0.5"],
        0, "117ece5585289ae49ba7cf2b75e3e84fbf3c8151d587c10bd835e1c273d3bbd0",
    ),
    "density-gauss-corner00": (
        ["density", "--copula", "mbar", "--radius", GAUSS, "--u", "0", "--v", "0"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "density-m": (
        ["density", "--copula", "m", "--u", "0.5", "--v", "0.5"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "grid-w": (
        ["grid", "--copula", "w", "--grid-n", "4"],
        0, "b998dbc2d127a6fcdfa5cdea1b379c2304b25dc1667bfb090fff33a63547a800",
    ),
    "grid-gauss": (
        ["grid", "--copula", "mbar", "--radius", GAUSS, "--grid-n", "6"],
        0, "7b21a750644fc6ef3d3924e2284bffc2d56004846764032244d3153333a38c67",
    ),
    "grid-const": (
        ["grid", "--copula", "mbar", "--radius", CONST, "--grid-n", "4"],
        0, "ef61a99b9a8d9b634b344cab02e65fcc3776402fb59a6c77c1d26e6158c0bb03",
    ),
    "grid-lower": (
        ["grid", "--copula", "wbar", "--radius", LOWER, "--grid-n", "5"],
        0, "fb53f4f28f8a89eae0051a95f31ce2b81a3c47d043759f7133df48230b093fff",
    ),
    "validate-const": (
        ["validate", "--copula", "mbar", "--radius", CONST, "--grid-n", "32"],
        1, "355f64e20aa92a58a45865e7261ebf0f9478837581ef522527417f0a64f02d57",
    ),
    "validate-gauss": (
        ["validate", "--copula", "mbar", "--radius", GAUSS, "--grid-n", "32"],
        0, "99bcf726322bd552c648da118ead56b9aaa39fb9ae4cd6fac0c658b40fd63a27",
    ),
    "validate-upper": (
        ["validate", "--copula", "mbar", "--radius", UPPER, "--grid-n", "32"],
        0, "068384722d9aeb7dc9b149049875b5831350fd272dcb6cae342634bd79867671",
    ),
    "validate-lower": (
        ["validate", "--copula", "wbar", "--radius", LOWER, "--grid-n", "32"],
        0, "6a57022ec70e17bfb6dd365ab20344942e881808a7f72255329f350c3cf7d735",
    ),
    "check-m": (
        ["check", "--copula", "m", "--grid-n", "64"],
        0, "85b2043b6fe6fb95905da41521c40c062a759636c48ac4e0164e76f27fa8149f",
    ),
    "check-w": (
        ["check", "--copula", "w", "--grid-n", "32"],
        0, "54d146b032c8c39a7e27b9e35ed05bd4e57fac606564a94b4e33d7a60d8ef390",
    ),
    "check-gauss": (
        ["check", "--copula", "mbar", "--radius", GAUSS, "--grid-n", "64"],
        0, "0da2d5864b1bd9074fa806c1804e48b246f91bc62e8ab34788346101b09c89d7",
    ),
    "check-const": (
        ["check", "--copula", "mbar", "--radius", CONST, "--grid-n", "32"],
        1, "e3280446611e9e9c4450803e694b89faca5f60bec3cab1aba6abec2a8d941d55",
    ),
    "check-lower": (
        ["check", "--copula", "wbar", "--radius", LOWER, "--grid-n", "32"],
        0, "700d1064c2f1e1722d54aa8d08e58c909c5229d5d57571c635ec40f89aca07b3",
    ),
    "sample-gauss": (
        ["sample", "--copula", "mbar", "--radius", GAUSS, "--n", "20", "--seed", "3"],
        0, "a165dae08c79e5b0f95a1649dcfae57593a405780ea1a472266b2be5f0458256",
    ),
    "sample-gauss-gaussian": (
        ["sample", "--copula", "mbar", "--radius", GAUSS, "--n", "20", "--seed", "3", "--gaussian"],
        0, "7f69627700c2f86bbb9da4d2753cb036ba413701d0648cf68ed808bb7bd030ea",
    ),
    "sample-upper": (
        ["sample", "--copula", "mbar", "--radius", UPPER, "--n", "15", "--seed", "-1"],
        0, "55535ebf97845704b81c6deea26fd580928022934bc509e0b29162c1203e1779",
    ),
    "sample-lower": (
        ["sample", "--copula", "wbar", "--radius", LOWER, "--n", "15", "--seed", "5"],
        0, "d7762f7fe9fe296450e419189244bca89208db264198504bad1860a3867f0da7",
    ),
    "sample-const": (
        ["sample", "--copula", "mbar", "--radius", CONST, "--n", "5"],
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "band-skew": (
        ["band", "--copula", "mbar", "--radius", SKEW, "--w", "0.1"],
        0, "4f29646a15b663c437076dd50e955afa6d6e6b8cfd095fbce6f1efdc78784d85",
    ),
    "band-gauss": (
        ["band", "--copula", "mbar", "--radius", GAUSS, "--w", "0.2"],
        0, "9f36eb1841b3dc9e793d68cbd0ac19ac8e6df5ec76e90f22b995eb1d550f869a",
    ),
    "band-const": (
        ["band", "--copula", "mbar", "--radius", CONST, "--w", "0.3"],
        0, "71f9576f8ef8a838b7d0ad07648d2c42af02c789e4c4886b2d5e9a8e94efb72c",
    ),
    "band-wbar": (
        ["band", "--copula", "wbar", "--radius", GAUSS],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # clipped to the diamond: zero width at the corners, closed on the boundary where it spills
    "band-gauss-corner": (
        ["band", "--copula", "mbar", "--radius", GAUSS, "--w", "0.7071067811865476"],
        0, "881d5352524cc7fa06665e7059f4589c85d28922080abc5f67b50be2d4085d41",
    ),
    "band-upper-corner": (
        ["band", "--copula", "mbar", "--radius", UPPER, "--w", "-0.7071067811865476"],
        0, "ff99076d894ea92794d207beb6607a7e7793f464b98b0055e430628681f4494f",
    ),
    "band-const-spill": (
        ["band", "--copula", "mbar", "--radius", CONST, "--w", "0.6"],
        0, "7b23d6a7e1d33a774969e77f345ec8113d68244b3dd89238c211edc060d558b0",
    ),
    "band-skew-too-large": (
        ["band", "--copula", "mbar", "--radius", WIDE, "--w", "0.0"],
        0, "4273341b21e7aec3e8110702ab04e5394ee2c96f6da7a284069f08580d45a2d7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_golden(capsys, name):
    argv, code, digest = GOLDEN[name]
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
