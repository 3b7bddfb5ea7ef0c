"""Pinned report bytes for a fixed set of CLI commands.

Each entry is a command, its exit code and the sha256 of the ``--json``
report it writes.  The reports are canonical, so the digests move only when
a base, a transversal representative, a sampled element, a witness or the
report layout changes; such a change must be deliberate and recorded.
"""

import hashlib

from permdeg.cli import main

GOLDEN = [
    (("trace", "catalog:M12", "jordan", "--seed", "0"), 0,
     "0de69e3af80f408bc6797a9d3bb9068ac81a40d3eac76c35da6841d09864cf2c"),
    (("trace", "catalog:M12", "double", "--seed", "0"), 0,
     "2f46e6a1f1b02981c95c84a65d63abbab84dbccc0d995c7fe1994b4516453cdc"),
    (("trace", "catalog:M12", "triple", "--seed", "0"), 0,
     "03bff30aa818ed864fac04808a873407abdd7a53e9ce51af5a29907430fa7b77"),
    (("trace", "catalog:M12", "quadruple", "--seed", "0"), 0,
     "d3ed4c8ef1cabff3140e5a2178f38d01935d1c9ab56eefcfe2821f8ae0521607"),
    (("trace", "catalog:M12", "jordan", "--seed", "1"), 0,
     "922089807b475c0a0bac471a67c6f0adb96a879a23a54df40467b7f426e4b303"),
    (("trace", "catalog:M12", "double", "--seed", "1"), 0,
     "6c0136a0db3d75b9f55ed85ffc55305c98c8fe94897a6bdb6c60dceb12d8b6cb"),
    (("trace", "catalog:M12", "triple", "--seed", "1"), 0,
     "f47c4f4734e44291798c436c3d166f278f5d2edf73f9eb616e29fa73214ede4b"),
    (("trace", "catalog:M12", "quadruple", "--seed", "1"), 0,
     "f6928a2b41964ce1d659ee947d04ba1261c06be0b1f490948790c19a38c7b0da"),
    (("trace", "catalog:PGL2_13", "jordan", "--seed", "0"), 0,
     "bbdf81638932e8a25d9ac9608ebbf5f183c0d7a93dd065b9a936b648c4f5a6f0"),
    (("trace", "catalog:PGL2_13", "double", "--seed", "0"), 0,
     "b86e3cb40844815457d021109f1cf341dfd9ef0485a2909fbf1d1ccba8102650"),
    (("trace", "catalog:PGL2_13", "triple", "--seed", "0"), 0,
     "d9b9e9c72f5965a19c66fe46d0e57043531e16556de417c81c2c0cfe4b9c660d"),
    (("trace", "catalog:PGL2_13", "quadruple", "--seed", "0"), 0,
     "c92c7af2533cb1bda05452517eb79b41191513efd8d2f0f2545ae5107f225c4d"),
    (("trace", "catalog:PGL2_13", "jordan", "--seed", "1"), 0,
     "cefbe8c8f0b6ff75ee0191499ef1256f151d92727d6abd2fb4db81629e94668a"),
    (("trace", "catalog:PGL2_13", "double", "--seed", "1"), 0,
     "f681f0ba16d3111f7ee49f4dc1df78101068dd54aee70449f5a6a70cfdeaa9ad"),
    (("trace", "catalog:PGL2_13", "triple", "--seed", "1"), 0,
     "bb3686912fab4e479068a99c8c8d15d88087afb0109030d00eb7117dac9d63e2"),
    (("trace", "catalog:PGL2_13", "quadruple", "--seed", "1"), 0,
     "0cc8144e8c2946e6b03673f05563eb4d8dda2e1883b774ad775424ef04664e2f"),
    (("verify", "catalog:M11", "all", "--samples", "100"), 0,
     "f33a60716728705e148ef13b4c5f8ee85afba3606f6da7c2ed8437c205e6b69f"),
    (("info", "catalog:M11"), 0,
     "0e9085ce67a784b3789c0e7a33fbe4ad20f3950ed21a2e51f9495a15825a8e49"),
    (("info", "catalog:M12"), 0,
     "04e492d1f3ab49abaf720a78fe32e6accaf8642c58ebd052bd0ef95080f6b773"),
    (("info", "catalog:PGL2_13"), 0,
     "45ec7eceec4d5ed49cca5d61205abdcb3485de98bf0b8e56eed1732a9ab2809f"),
    (("table",), 0,
     "a451857dc0b60b8f5e71136dcdc05ce75746f1318620f22e86c5d1e4c96f67b3"),
    # the sampled suites on their own: every seeded draw and every failure
    # tally of the laws and counts kernels lands in these bytes
    (("verify", "catalog:S8", "laws", "--samples", "200"), 0,
     "3e1aeafc2c7238dd9ea84c559cd5212e3fc4a6b6e6f74096d3d7a0df2ed983a0"),
    (("verify", "catalog:M12", "laws", "--samples", "200"), 0,
     "6cef009841c98c6693308eddf10950b1cc8e7c60d3d89f5463b5ceead65d8415"),
    (("verify", "catalog:M24", "laws", "--samples", "200"), 0,
     "6c7f3bae0805100d865b20ce7c2ac91afbb98f1116d15c6f675ae81d0c612c09"),
    (("verify", "catalog:S8", "counts", "--samples", "40", "--seed", "0"), 0,
     "15e61ffb78caa6f040810beceb4bf5424dedc53db21a4ad6af39b749251b67c2"),
    (("verify", "catalog:S8", "counts", "--samples", "40", "--seed", "1"), 0,
     "2f61422f933dacb856639f58d2710833e80b885f13675badaa2313944902f989"),
    (("verify", "catalog:M12", "counts", "--samples", "40", "--seed", "0"), 0,
     "53162172b902609d1e7d1263e58a7ad19ba5636a35da22c5d91bf46d4b997e8f"),
    (("verify", "catalog:M12", "counts", "--samples", "40", "--seed", "1"), 0,
     "474730527525effb83ffd96b0caf76e09f0a732d6202a14669e70dc747c9daa1"),
    (("verify", "catalog:PSL2_31", "counts", "--samples", "40", "--seed", "0"), 0,
     "de024d24955efee92ea9168dfc5b8643f08266b8ac5fe21b381dc1e36b4d8d6b"),
    (("verify", "catalog:PSL2_31", "counts", "--samples", "40", "--seed", "1"), 0,
     "c32d0c5ef71a6d07697be8e6c37da81077300698f96ebf98128a6d209ed88500"),
    (("verify", "catalog:PGL2_31", "counts", "--samples", "40", "--seed", "0"), 0,
     "c7b29f2dcc076cc2c9e7ae2107b96288798de0a2a20246ce4fe396c8e0714a70"),
    (("verify", "catalog:PGL2_31", "counts", "--samples", "40", "--seed", "1"), 0,
     "1c867d55ea7cc6f3c8edbc452264baf5ba5bf8c56dbc802a4a40482c8d0ec762"),
    # many configurations per suite call, so orbit keys repeat across draws
    # and the pair-orbit labels of each |delta| serve several configurations
    (("verify", "catalog:PSL2_31", "counts", "--samples", "400", "--seed", "0"), 0,
     "f187ae5f71f7ab795f5686b404b91f7467f97964c45ff8762f9d4aad5fbebeb1"),
    (("verify", "catalog:PSL2_31", "counts", "--samples", "400", "--seed", "1"), 0,
     "9c1d5c3fbadc15695c6b1f78af422d6d7468a1f278d3f62b225323e6f271b637"),
    (("verify", "catalog:PGL2_31", "counts", "--samples", "400", "--seed", "0"), 0,
     "08b8ec336892afcfcb96ce3499fdbae631e72e44395342ab4a02a7d93cd2c564"),
    (("verify", "catalog:PGL2_31", "counts", "--samples", "400", "--seed", "1"), 0,
     "63b9001180fc55390a258d0b7b5e606e773daef28de622187101cc8defb589cb"),
    (("verify", "catalog:M11", "counts", "--samples", "200", "--seed", "0"), 0,
     "d654c4fa9e72cb9c43b54d18c5bcf0d9cb9dcba66ea4de77ce6b959f86abc4ac"),
    (("verify", "catalog:M11", "counts", "--samples", "200", "--seed", "1"), 0,
     "81e451ecf1665050cfae91450405a759b8e347d13225745693053666420b80fb"),
    (("verify", "catalog:PSL2_31", "all", "--samples", "200", "--seed", "0"), 0,
     "1284d43063524024ef9541783e9b0030898cc86f081ffc09363ee453a851e12c"),
    (("verify", "catalog:PSL2_31", "all", "--samples", "200", "--seed", "1"), 0,
     "3defcf29eeb6405c1027d4296faa9273ca59e6f1633423ef1f14b05e7bc4c96c"),
    # one trace report type: the jordan cases, an inapplicable trace's
    # null-valued details, and a seeded relocation in the quadruple trace
    (("trace", "catalog:S7", "jordan"), 0,
     "6b02ed19b0c31b0e6f30b0b7a33e022a7066459b760aa04fb50d9215a8b1b44c"),
    (("trace", "catalog:M11", "jordan"), 0,
     "55fc81c27364c41c3107a2756d490d3aa655cc4ff03c77548cf6820f1e889f08"),
    (("trace", "catalog:PSL2_7", "jordan"), 0,
     "da92212958f54d3e05992f264793c494148a3276692859e407116a0fa3572655"),
    (("trace", "catalog:C6", "double"), 0,
     "f2f5923b4092430b88f2411fbf8ff048aba0bbb395364194dbc719091ea16b03"),
    # the one jordan exit that fires: t a multiple of p pins the shifted
    # image (M11 at seed 0 is the unseeded command above)
    (("trace", "catalog:M11", "jordan", "--seed", "1"), 0,
     "2f172000c52994458323abfa5b76095e00fcf151537f9a6ff00477ec923323eb"),
    (("trace", "catalog:PSL2_13", "jordan", "--seed", "0"), 0,
     "1f0d9fea78fd52cf5a6ee9257da45bc89ed0eefb5161cf1d54ed6a7b55d57a09"),
    (("trace", "catalog:PSL2_13", "jordan", "--seed", "1"), 0,
     "df909b888c06f74b49a47c3b07d6273000d474e86a4bfaee2b84eb69ccba1110"),
    (("trace", "catalog:M11", "quadruple", "--seed", "2"), 0,
     "2d7fd241a5aa0adb1290e100a93bb746609fc79210356d357967fe9762d7e8b3"),
    # the large Mathieu groups, whose conjugation orbits are too big to list
    (("verify", "catalog:M23", "counts", "--samples", "20", "--seed", "0"), 0,
     "ac1f3d236f8dbf20f3f9d41c11bbe3996624f8a1fcf7655768c4301acd3e4712"),
    (("verify", "catalog:M23", "counts", "--samples", "20", "--seed", "1"), 0,
     "d1ca158c58406e6ac778f9acc262d7b12b9f9b5e21104a86392c5cf94176b0df"),
    (("verify", "catalog:M24", "counts", "--samples", "20", "--seed", "0"), 0,
     "729034afe1ce83212ebdd832ed455fceb5f2c3adb3fe40199ee253e3a4626043"),
    (("verify", "catalog:M24", "counts", "--samples", "20", "--seed", "1"), 0,
     "da4652fcef592771832f17ec8d94c65c781ef3f78f8ce069d3975b18f6eef2fb"),
    # chain readers: element enumeration, the stabilizer-prefix backtrack,
    # and transporters and seeded draws on the large Mathieu groups
    (("mindeg", "catalog:M11", "--method", "exhaustive"), 0,
     "a9e66670e141f90e65b1b796ef69db5eefa23fdc0a6ebd19c732cf43d5e223f9"),
    (("mindeg", "catalog:PSL2_7", "--method", "exhaustive"), 0,
     "34c7ea4e602e551f361036815b7eea6e99deb4745c8b57e475e5ec793a19ab4d"),
    (("mindeg", "catalog:M23"), 0,
     "4250ed30b52a6b8a364cafe573278d09afbd133fd32f5017c49ef1c45be02578"),
    (("mindeg", "catalog:M24"), 0,
     "b6c61eb8d9dd531a4b178edd65bd5ec2d395157ca418acfb861b919647e55134"),
    (("info", "catalog:M24"), 0,
     "b985d61f6f843b89d16aa4a9f1ec92ffb4207de91946a7ed73db3276bb0fda35"),
    (("trace", "catalog:M24", "jordan", "--seed", "7"), 0,
     "b866affa6f319123b4441c381a4ec2c3dc435b1b147888f76961733624185645"),
    (("trace", "catalog:M24", "triple", "--seed", "1"), 0,
     "9ae7a6dfcc4a2d09fb4ad43b0f196d689abb7ec75695b21f15c1282f877e7247"),
    (("trace", "catalog:M23", "quadruple", "--seed", "2"), 0,
     "d9a7a6cb2f861bb14cb6d2c7e1441729748088c50268cd243f7845820d5040f7"),
    # conjugation closures over the large groups' point and two-point
    # stabilizers, and the known-order chains under them
    (("trace", "catalog:M24", "double", "--seed", "3"), 0,
     "4dec71e8de989ea9e2c45d62e83e396e7952d6f11267d3b8aeb39b71d1ea8334"),
    (("trace", "catalog:M24", "quadruple", "--seed", "3"), 0,
     "9ed46c2d17df9aa2e3a22256682c43963905553ff225dcbd2851c4dd9bd83243"),
    (("trace", "catalog:M23", "double", "--seed", "3"), 0,
     "e6821b6ff698615aef50552d7c998aea7c18830b945e1ce073a03ef3a92065cc"),
    (("trace", "catalog:M23", "triple", "--seed", "3"), 0,
     "852ef402b8d53ef9d462be00a8a1c800784cafef6c118b3aff84ab30ed0e8b7f"),
]


def test_report_digests_pinned(tmp_path, capsys):
    path = tmp_path / "report.json"
    moved = []
    for argv, code, digest in GOLDEN:
        observed = (main([*argv, "--json", str(path)]),
                    hashlib.sha256(path.read_bytes()).hexdigest())
        if observed != (code, digest):
            moved.append((" ".join(argv), observed))
    capsys.readouterr()
    assert moved == []
