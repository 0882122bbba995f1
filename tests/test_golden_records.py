"""Byte-exact JSON records of CLI jobs that reach every caller of the exact
elimination kernel: kernels and reduced echelon forms over QQ and GF(p), dual
models read off the RREF of contraction images, and ranks of multiplication
maps.  A change in pivot choice or kernel normal form shows up here as a
changed string."""

import pytest

from apolarity.cli import render_record, run_command

DUAL_F = "X^3*Y + 2*X*Y^2*Z - 3/2*Z^4 + Y^4"

GOLDEN = [
    # QQ kernels of catalecticants
    (
        ["ann", "--dual-generator", DUAL_F, "--field", "q", "--degree", "2"],
        '{"job":{"command":"ann","dual_generator":"X^3*Y + 2*X*Y^2*Z + Y^4 - 3/2*'
        'Z^4","field":"QQ"},"payload":{"annihilator":{"count":1,"degree":2,"gener'
        'ators":["-2*x^2 + y*z"]}},"version":"1"}',
    ),
    (
        ["ann", "--dual-generator", DUAL_F, "--field", "q", "--degree", "3"],
        '{"job":{"command":"ann","dual_generator":"X^3*Y + 2*X*Y^2*Z + Y^4 - 3/2*'
        'Z^4","field":"QQ"},"payload":{"annihilator":{"count":7,"degree":3,"gener'
        'ators":["x^2*z","-2*x^3 + x*y*z","x*z^2","-x^3 + y^3","-2*x^2*y + y^2*z"'
        ',"y*z^2","3/4*x*y^2 + z^3"]}},"version":"1"}',
    ),
    # QQ kernel whose vectors carry non-integral entries
    (
        ["ann", "--dual-generator", "2/3*X^4 + 5/7*Y^2*Z^2 - 3*X*Y*Z^2 + 1/2*Z^4",
         "--field", "q", "--degree", "3"],
        '{"job":{"command":"ann","dual_generator":"2/3*X^4 - 3*X*Y*Z^2 + 5/7*Y^2*Z'
        '^2 + 1/2*Z^4","field":"QQ"},"payload":{"annihilator":{"count":7,"degree"'
        ':3,"generators":["x^2*y","x^2*z","x*y^2","y^3","5/21*x*y*z + y^2*z","9/2'
        '*x^3 + 5/21*x*z^2 + y*z^2","1/6*x*y*z + z^3"]}},"version":"1"}',
    ),
    # QQ reduced echelon form in the ideal model
    (
        ["jdt", "--ideal", "x^2 - y*z, y^2 - 2*x*z, z^2", "--ell", "x+2*y-z", "--field", "q"],
        '{"job":{"command":"jdt","ell":"x + 2*y - z","field":"QQ","ideal":{"bound'
        '":7,"gens":["x^2 - y*z","-2*x*z + y^2","z^2"]}},"payload":{"jordan":{"de'
        'gree_type":{"notation":"4_0,2_1^2","pairs":[[4,0,1],[2,1,2]]},"partition'
        '":{"exponents":"(4,2^2)","parts":[4,2,2]}}},"version":"1"}',
    ),
    # QQ reduced echelon form of an ideal with fractional coefficients
    (
        ["jdt", "--ideal", "x^2 - 3/2*y*z, y^2 - 2/5*x*z, z^2", "--ell", "x + 1/3*y - z",
         "--field", "q"],
        '{"job":{"command":"jdt","ell":"x + 1/3*y - z","field":"QQ","ideal":{"bou'
        'nd":7,"gens":["x^2 - 3/2*y*z","-2/5*x*z + y^2","z^2"]}},"payload":{"jord'
        'an":{"degree_type":{"notation":"4_0,2_1^2","pairs":[[4,0,1],[2,1,2]]},"p'
        'artition":{"exponents":"(4,2^2)","parts":[4,2,2]}}},"version":"1"}',
    ),
    # GF(p) reduced echelon form in the ideal model
    (
        ["jdt", "--ideal", "x^3, x*y^2, y^3", "--bound", "4", "--ell", "x+y"],
        '{"job":{"command":"jdt","ell":"x + y","field":"GF(32003)","ideal":{"boun'
        'd":4,"gens":["x^3","x*y^2","y^3"]}},"payload":{"jordan":{"degree_type":{'
        '"notation":"4_0,2_1,1_2","pairs":[[4,0,1],[2,1,1],[1,2,1]]},"partition":'
        '{"exponents":"(4,2,1)","parts":[4,2,1]}}},"version":"1"}',
    ),
    # GF(p) kernel of a catalecticant
    (
        ["ann", "--perazzo", "m=2,d=3", "--degree", "2"],
        '{"job":{"command":"ann","field":"GF(32003)","perazzo":{"d":3,"m":2}},"pa'
        'yload":{"annihilator":{"count":10,"degree":2,"generators":["x[2,0]^2","x'
        '[2,0]*x[1,1]","x[2,0]*x[0,2]","x[2,0]*y2","x[1,1]^2","x[1,1]*x[0,2]","32'
        '002*x[2,0]*y1 + x[1,1]*y2","x[0,2]^2","x[0,2]*y1","32002*x[1,1]*y1 + x[0'
        ',2]*y2"]}},"version":"1"}',
    ),
    # QQ dual model, then ranks of power maps
    (
        ["jdt", "--dual-generator", DUAL_F, "--field", "q", "--ell", "x + 2*y - 3*z"],
        '{"job":{"command":"jdt","dual_generator":"X^3*Y + 2*X*Y^2*Z + Y^4 - 3/2*'
        'Z^4","ell":"x + 2*y - 3*z","field":"QQ"},"payload":{"jordan":{"degree_t'
        'ype":{"notation":"5_0,3_1^2,1_2^2","pairs":[[5,0,1],[3,1,2],[1,2,2]]},"p'
        'artition":{"exponents":"(5,3^2,1^2)","parts":[5,3,3,1,1]}}},"version":"1"}',
    ),
    # GF(p) dual model, then ranks of power maps
    (
        ["jdt", "--perazzo", "m=3,d=4",
         "--ell", "a[3,0,0]=4191,a[2,1,0]=19531,b1=17827,b2=9636"],
        '{"job":{"command":"jdt","ell":{"a":{"[2,1,0]":"19531","[3,0,0]":"4191"},'
        '"b":{"1":"17827","2":"9636"}},"field":"GF(32003)","perazzo":{"d":4,"m":3'
        '}},"payload":{"jordan":{"degree_type":{"notation":"5_0,3_1^5,2_1^3,2_2^3'
        ',1_1^4,1_3^4","pairs":[[5,0,1],[3,1,5],[2,1,3],[2,2,3],[1,1,4],[1,3,4]]}'
        ',"partition":{"exponents":"(5,3^5,2^6,1^8)","parts":[5,3,3,3,3,3,2,2,2,2'
        ',2,2,1,1,1,1,1,1,1,1]}}},"version":"1"}',
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_json_record(argv, expected):
    code, record, _ = run_command(argv)
    assert code == 0
    assert render_record(record, "json") == expected
