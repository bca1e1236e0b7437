"""Pinned bytes of the ``kernel`` and ``heat`` tables, so that a faster row
loop cannot move a printed digit unseen.

Each hash is the sha256 of one command's standard output at a (p, n, alpha)
point: the five benchmark grid points, a non-integer alpha close to n and a
large integer alpha, each at gamma = 320 and 1100 and at its overflow depth
(the least gamma with p**(gamma n) >= 2**1024), plus heat tables at extreme
times.  They were recorded with one ``format(float(x), ".17g")`` per printed
value and exact kernel rows computed to the last shell.
"""
import hashlib

import pytest

from padic_bessel.cli import main

GOLDEN = {
    ('kernel', 2, 1, 2.0, 320, None): "ddee10165f36e3512f83aec10c6bc665af84118eaf3e3cdc2f674203d213b87c",
    ('heat', 2, 1, 2.0, 320, 0.7): "a6d00de9f225c30092e2d49b088bce2521257968b89b74919a6b04ef28576558",
    ('kernel', 2, 1, 2.0, 1100, None): "278e3083bc1861ff611d4c8c53f61734485de45093055f28e82d21cbe15057d3",
    ('heat', 2, 1, 2.0, 1100, 0.7): "03e586317e542d8a1ad366da9f21f5a86bc3a07b92cd6fea40454bee3baa7a7c",
    ('kernel', 2, 1, 2.0, 1024, None): "926225426504052a705202bd590e0e7e5984bce831326f4c0444ebea5e1eb9b0",
    ('heat', 2, 1, 2.0, 1024, 0.7): "3cbf5ad9c715576f3a8d38910296d2bef38f26cb373e561edbb610d53e25e065",
    ('kernel', 3, 1, 3.0, 320, None): "39f83ab8ba2ac02d3caf750c81c6ee395bc71bf942cabdcf4c32a9664f0b2704",
    ('heat', 3, 1, 3.0, 320, 0.7): "7dcde1821b1335723917cf83c3541689a2f74acb06b589be1a7d32b4c3b5129c",
    ('kernel', 3, 1, 3.0, 1100, None): "3680bd0bda554a8fa138152045688e6a27e99d0faeacb3be2df6ffccd3dfbe33",
    ('heat', 3, 1, 3.0, 1100, 0.7): "744ab03644488e9698062f2e8992dda67c72dc8242b4b944778b00742443056e",
    ('kernel', 3, 1, 3.0, 647, None): "8d747946de9958a54b3ab1de38b696f70952d8ea3936a449a54ecdd816bc97dd",
    ('heat', 3, 1, 3.0, 647, 0.7): "cc1b7c7f9d3d51c26cef81a88dc080643741f5e73601e33304de496a4c7efd17",
    ('kernel', 2, 2, 4.0, 320, None): "ee189097a191431374e4428c1297412e4a5b91dcc5ad7e3ad5ee97a77f859a12",
    ('heat', 2, 2, 4.0, 320, 0.7): "5328039209fe430c1fc2bcc931cd310db1838cb6b358a8238df5101092514b08",
    ('kernel', 2, 2, 4.0, 1100, None): "e9ab8a0ead6a702c78db612151138af4b31a2f1ba49bdb455f3809b1c1625e06",
    ('heat', 2, 2, 4.0, 1100, 0.7): "e1cb76771d62b53b015a6b1ca27c1a808202cabd5ac6052ee63aee21356c1457",
    ('kernel', 2, 2, 4.0, 512, None): "d99f7564fa0daa98a8f7ec96e7bb17fe642b16420a27d10c88f9dcd39ec83f4c",
    ('heat', 2, 2, 4.0, 512, 0.7): "c104d0a458d9df669ea008e8c25b269d0657738e28cbdefa1875dc5c162b2a51",
    ('kernel', 5, 1, 2.0, 320, None): "c55231b4eca01394a24352da8821d577b04e2aac850e191988893a10a83f86d8",
    ('heat', 5, 1, 2.0, 320, 0.7): "7e384b2581bd57c957e0111df1e07bad289725a4842d4ee88a27c4e6ba9c493f",
    ('kernel', 5, 1, 2.0, 1100, None): "0eebd9cdc6c2b6f937a100ce032048a6122046934bd51c6d803bd3238f1a2ca8",
    ('heat', 5, 1, 2.0, 1100, 0.7): "0f2ad0f1cc01bc6af589233f0d0f30ba57e826fbafa7acef308d2faf767959a9",
    ('kernel', 5, 1, 2.0, 442, None): "ef65e196278795e45e5ea4a05d2b32320dc1ca0a0c3ef6f58657bfccf9148d58",
    ('heat', 5, 1, 2.0, 442, 0.7): "04de7e3cd9430d8c5529ecae51b7f28cda2beed0b37915d149a26f1eba2b9a1b",
    ('kernel', 3, 2, 2.5, 320, None): "bb4b1684c8fc9f363bd8e24714dc2717d657a61f8178003427587040672c5ef3",
    ('heat', 3, 2, 2.5, 320, 0.7): "2919efa4f52f8eaff3648a8361cf0e383cae28d82aa1a148683ba1cdaafcab18",
    ('kernel', 3, 2, 2.5, 1100, None): "86200591400249a1e3c1be5c68e615a9cbf7b62ccece9b2af1875677e3335fc6",
    ('heat', 3, 2, 2.5, 1100, 0.7): "9be901a343bc640dfea5b6328938a92c17738c7d93d3a1425a7959b37a7114c1",
    ('kernel', 3, 2, 2.5, 324, None): "ae7c51c5c554e5e6a5f06673171055743d0464d476163f465ad83e035ce6b02e",
    ('heat', 3, 2, 2.5, 324, 0.7): "9649976af5bb825cb5adca4c6bb00f03156298634b15012560687fb0d038485b",
    ('kernel', 2, 1, 1.01, 320, None): "fa4ea5c6a447af9fd2fd2854fa6a4cd261ffdf985fcd0cd18a0b693707040eb4",
    ('heat', 2, 1, 1.01, 320, 0.7): "0048eb60fca4d4cc5db9a5a9bc43dcc5dd02ea32b0f27fcdc7704b32b123f022",
    ('kernel', 2, 1, 1.01, 1100, None): "91931143338b44b405afc4756e83cf48ca8e00f9d1327bbb01afa46724c8a26e",
    ('heat', 2, 1, 1.01, 1100, 0.7): "0268582fc8dd43d3dd46f40454d78f337ae6461adf0131dbee050726e48ed5d2",
    ('kernel', 2, 1, 1.01, 1024, None): "2663646c684137016dfe0b0191e5fee4284011f698decd59c8674fd62999a470",
    ('heat', 2, 1, 1.01, 1024, 0.7): "80bbb99d1a26c23f3afb0bf60cb778ac5062de20b7bf2db0c69ff6534b65f5aa",
    ('kernel', 7, 1, 60.0, 320, None): "482c681a2360264d1e6eb68d41c78b8a8c9228658a20cf4f603efe4f95c84222",
    ('heat', 7, 1, 60.0, 320, 0.7): "e1bf19533344385f9d82cc91d43a572d4a13896b8b6f19202648f8f098a31484",
    ('kernel', 7, 1, 60.0, 1100, None): "726893e48e4fcd3df74e91ecdc163f7303a6fc2ac2d21e8b78e23f47bbca3848",
    ('heat', 7, 1, 60.0, 1100, 0.7): "4e92224674eb4efeaaf9309f81ab7837a54fe9fdc03229114b81b7198679db48",
    ('kernel', 7, 1, 60.0, 365, None): "797ae833b298ca293daa7bdd05229faedd15586090558d216a8370e7211e83c9",
    ('heat', 7, 1, 60.0, 365, 0.7): "3bbe07c6740162030ce5cb50e8edaf53bd36447f9615ebb9cdfee28835a65d6f",
    ('heat', 2, 1, 2.0, 320, 1e-300): "0064c24c21fddf8e885679e0a113526eb711ccba88c9cc39f69448f9a3ebfe2f",
    ('heat', 3, 2, 2.5, 320, 1e-300): "80ec737301e2a90f525c22182e499cd6f1fc842e749b79e167b7cc172cad2bb4",
    ('heat', 2, 1, 2.0, 320, 1e+200): "724b01b2c21284a36b584ab40caa0b09b252a0124d91cf73410efdcf42c504ba",
    ('heat', 3, 2, 2.5, 320, 1e+200): "7b2022badda42f8749f03328a91cefdd248c5a100e95ad8fc935a43f59fed830",
}


@pytest.mark.parametrize("command,p,n,alpha,gamma,t", sorted(GOLDEN, key=repr))
def test_tables_match_their_pinned_hashes(capsys, command, p, n, alpha, gamma, t):
    argv = [command, "--p", str(p), "--n", str(n), "--alpha", str(alpha), "--gamma-max", str(gamma)]
    if t is not None:
        argv += ["--t", repr(t)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, p, n, alpha, gamma, t]
