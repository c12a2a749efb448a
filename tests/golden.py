"""Frozen reference values for the test suite.

Sources: published table values for the counting sequences, the (h, d)
triangle, the leading-term evaluations and the first three residue
coefficients; independently computed oracle values (mpmath at 60 decimal
digits) for special-function spot checks, recorded here so the suite does
not depend on the library under test. LOGF_DIRECT_192, ZERO_TERMS_SHA256
and CLI_STDOUT_SHA256 are the exceptions: the library's own direct sum,
frozen bit for bit so a kernel change shows, digests of its own (t, c_γ)
at every bundled zero, frozen so a change of any bit shows, and digests of
the CLI's own stdout, frozen so a change of any printed byte shows.
"""

# counts of height-n polygons, slopes in [0, 1): n = 0..10, then n = 100
COUNTS_0_TO_10 = (1, 1, 2, 4, 7, 13, 21, 37, 60, 98, 157)
COUNT_100 = 124156847482548

# leading 10 significant digits (decimal string, exponent) of large counts
COUNT_1000_LEAD = ("3061052712", 71)
COUNT_10000_LEAD = ("1235480725", 340)
COUNT_100000_LEAD = ("1185775851", 1589)

# main-term values P(n), 10 significant digits
LEADING_TERM = {
    1: "1.350821266",
    2: "2.403759900",
    3: "4.340223158",
    4: "7.696029030",
    5: "13.36116532",
    6: "22.74249494",
    7: "38.03034100",
    8: "62.59799195",
    9: "101.5922302",
    10: "162.7997475",
    100: "1.248747592e14",
    1000: "3.064377128e71",
    10000: "1.235736815e340",
    100000: "1.185822461e1589",
}

# triangle of counts by (height, depth), slopes in [0, 1), rows h = 0..15
RHO_ROWS = (
    (1,),
    (1, 0),
    (1, 1, 0),
    (1, 2, 1, 0),
    (1, 3, 2, 1, 0),
    (1, 4, 4, 3, 1, 0),
    (1, 5, 6, 5, 3, 1, 0),
    (1, 6, 9, 9, 7, 4, 1, 0),
    (1, 7, 12, 14, 12, 9, 4, 1, 0),
    (1, 8, 16, 20, 20, 17, 10, 5, 1, 0),
    (1, 9, 20, 28, 31, 28, 21, 13, 5, 1, 0),
    (1, 10, 25, 38, 45, 45, 38, 27, 15, 6, 1, 0),
    (1, 11, 30, 49, 63, 68, 63, 50, 33, 17, 6, 1, 0),
    (1, 12, 36, 63, 86, 99, 98, 85, 64, 40, 20, 7, 1, 0),
    (1, 13, 42, 79, 114, 139, 147, 136, 113, 80, 48, 23, 7, 1, 0),
    (1, 14, 49, 97, 148, 189, 212, 209, 186, 145, 98, 57, 25, 8, 1, 0),
)

# first three zeros, 8 decimal places, and their residue coefficients
ZERO_T_8DP = ("14.13472514", "21.02203963", "25.01085758")
RESIDUE_COEFFS = (
    ("3.011993987e-11", "4.792386731e-10"),
    ("-5.721173997e-15", "1.369306521e-14"),
    ("-2.705070957e-17", "2.213981113e-17"),
)

# independently computed oracle values (mpmath, 60 decimal digits)
GAMMA_AT_HALF_PLUS_I_14_134725141 = (
    "-1.4455514612323383792235209446513469113297863609985e-10",
    "-5.5227880853841708078589298633204129202208316897853e-10",
)
ZETA_DERIV_AT_MINUS_1 = "-0.165421143700450929213919660243"
LOGF_DIRECT_AT_TAU_1 = "0.7831704291520187615769124"

# logf-check's direct sum at 192 bits, every bit (60 digits read back at 192
# bits give the same mpf): τ -> (terms, direct)
LOGF_DIRECT_192 = {
    "0.014": (12103, "3729.11849112097649056332309270786431888480944812159555455296"),
    "0.01": (17012, "7308.4217598859975298848997557909076360750238699599974446573"),
}

# SHA-256 of the (t, c_γ) pairs of asymptotics._zero_terms over all 100 bundled
# zeros, as the repr of a list of tuples of the ints in t._mpf_, Re c._mpf_ and
# Im c._mpf_: bits -> hex digest
ZERO_TERMS_SHA256 = {
    64: "46aed057fe1fd30a0b4cdd6806b4031ce2cfe506a1dba37f885a560ec7ea146b",
    192: "03d515eb51dfc2d654eecdbf7bdde6a4f06798a1aac2b0ddbf650e68497d34b3",
}

# symmetric polygon counts for g = 1..8 (brute-force enumeration oracle)
SYMMETRIC_COUNTS = (2, 3, 5, 8, 13, 20, 31, 47)

# [0, 1/2] counts for g = 0..8 (brute-force enumeration oracle)
HALF_RANGE_COUNTS = (1, 1, 2, 3, 5, 8, 12, 19, 28)

# SHA-256 of the CLI's stdout, as CSV and as JSON (default --bits and --digits
# unless given): argv -> {format: hex digest}
CLI_STDOUT_SHA256 = {
    ("count", "--max", "300"): {
        "csv": "dbdfd28a2686e25b46ec67168f3c5fca5815f5c235718a90b09551a0cd27658f",
        "json": "a005a38c485c7fcf2b178d2699556f286845f59edcb0e5a4bceee7610d3ae7d1",
    },
    ("rho", "--max-height", "20"): {
        "csv": "0851ff8f90262c8b226a70484dd6528e58ea446e536f10785442e196f94e3c62",
        "json": "4d0d6dae6d6e9c6df45ce5ef81cd03badaa0d6f69695f8aea723d971d04979b0",
    },
    ("compare", "-n", "100", "--k-zeros", "3", "--bits", "128"): {
        "csv": "f8d5b6d966d345c2e4f9cace88bbfabb11b4e1274dfd5fd20c363bbe1388b86d",
        "json": "309e06721c83f314cdf5e1927351f5b91012e51f64442e516b6fad5dbe6f3d68",
    },
    ("count", "--max", "300", "--range", "closed"): {
        "csv": "9cb146a87e2f3a3757de0cd6e4b1b95a5f371b85ee6ca99ddbf683cca7099542",
        "json": "b6f28a9b9bcbb6131667b3737a978bfbd30376d8017a37010597fab4ce7c6fa5",
    },
    ("count", "--max", "300", "--range", "half"): {
        "csv": "4fe04646620e23533a9bce8ceaadce813ef358c8d26355158f91ae36b98a020d",
        "json": "cb0a66f0b9bb1e27d33663ab9541255fa6695e3cf457271411003df67496cd06",
    },
    ("count", "--max", "300", "--range", "symmetric"): {
        "csv": "f69d346e421780e725c6d2a8fcc394ee9d14538300a0b468aa7c90f7c34a7eb0",
        "json": "29f68b70a99468d6dc650ca04912228d413357a1d41fd4af74930e7eb391c818",
    },
    ("compare", "-n", "100", "--k-zeros", "3", "--bits", "128", "--range", "closed"): {
        "csv": "1f753fad1856b91012df1bfd75053acd42f55144c3ea56ea6aced6da59096aa9",
        "json": "848b41bcffc045b434e0cd6b9312bfdcc4b518807ea6dbd3c152250e88ee8276",
    },
    ("compare", "-n", "100", "--k-zeros", "3", "--bits", "128", "--range", "half"): {
        "csv": "260280a2e471b9d1638cefae41260b833a3742171c4dbb36e7f2c104bf4c1120",
        "json": "1d10ae526111110633443b40917c9117b32f1ae267cda779d2a5328b5c67bcaf",
    },
    ("compare", "-n", "100", "--k-zeros", "3", "--bits", "128", "--range", "symmetric"): {
        "csv": "fcf8025ce7db337b18b0fa2b0db05f4ee5a8b1b47193059c5a3075fd048d551b",
        "json": "37851bb5d02ad7a0ae3514e115b612a9ddb068adecb0fce93c9f5aa05405e1a7",
    },
}
