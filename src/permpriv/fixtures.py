"""Bundled 20-record demonstration dataset and its frozen reference outputs.

The original table has three attributes drawn from N(100, 10^2),
N(1000, 50^2), and N(5000, 200^2); the masked variant added zero-mean
Gaussian noise with standard deviations 5, 25, and 100 per attribute.  The
noise seed is withheld on purpose: disclosing method and parameters while
keeping the seed secret is exactly the transparency setting the toolkit
analyzes.  Both tables ship as frozen literals and are never regenerated.

Everything below the two data tables is frozen reference output used by the
demo gate and the regression suite: reverse-mapped values, noise split,
rank/deviation evidence for record 3, the full certificate, the linkage
table, and the distance distributions.
"""

from __future__ import annotations

from .table import MicrodataTable, Role

ATTRIBUTES = ("a1", "a2", "a3")

DISCLOSURE = (
    "masking by additive Gaussian noise, per-attribute standard deviations "
    "(5, 25, 100); noise seed withheld"
)

_ORIGINAL = (
    (103.69, 981.80, 4928.80),
    (93.13, 980.97, 4931.16),
    (100.87, 902.21, 5108.54),
    (95.24, 953.37, 5084.18),
    (96.18, 1086.34, 5212.25),
    (93.16, 986.70, 5232.96),
    (95.50, 952.13, 4824.95),
    (115.53, 988.44, 5437.43),
    (98.99, 941.48, 4835.05),
    (109.96, 984.87, 4950.48),
    (99.72, 1005.19, 5158.64),
    (116.75, 1057.63, 4986.25),
    (107.62, 1025.13, 4954.28),
    (87.62, 1031.74, 4905.71),
    (109.81, 971.09, 4941.81),
    (110.63, 1052.34, 4495.19),
    (113.76, 972.20, 4893.50),
    (105.59, 1027.64, 5143.05),
    (108.21, 990.58, 4714.76),
    (104.74, 1023.96, 4900.79),
)

_MASKED = (
    (108.18, 972.62, 4876.73),
    (96.60, 1020.73, 5005.04),
    (105.26, 882.92, 4900.68),
    (88.02, 944.54, 4949.78),
    (91.57, 1057.83, 5267.57),
    (100.41, 991.34, 5230.64),
    (100.31, 959.89, 4824.03),
    (123.37, 1061.23, 5450.70),
    (103.12, 903.25, 4752.03),
    (104.82, 912.77, 4997.61),
    (87.83, 1025.01, 5166.63),
    (112.21, 1082.43, 4988.44),
    (114.29, 988.93, 4889.75),
    (90.83, 1049.58, 4902.04),
    (113.64, 1002.19, 5020.71),
    (103.07, 1052.03, 4519.26),
    (117.00, 962.84, 5087.90),
    (89.43, 1049.97, 5072.79),
    (115.79, 1036.10, 4662.73),
    (104.00, 1037.00, 4931.99),
)

# 1-based within-attribute ranks of the two tables above
ORIGINAL_RANKS = (
    (10, 8, 8),
    (2, 7, 9),
    (9, 1, 15),
    (4, 4, 14),
    (6, 20, 18),
    (3, 10, 19),
    (5, 3, 3),
    (19, 11, 20),
    (7, 2, 4),
    (16, 9, 11),
    (8, 13, 17),
    (20, 19, 13),
    (13, 15, 12),
    (1, 17, 7),
    (15, 5, 10),
    (17, 18, 1),
    (18, 6, 5),
    (12, 16, 16),
    (14, 12, 2),
    (11, 14, 6),
)

MASKED_RANKS = (
    (14, 7, 5),
    (6, 11, 13),
    (13, 1, 7),
    (2, 4, 10),
    (5, 18, 19),
    (8, 9, 18),
    (7, 5, 4),
    (20, 19, 20),
    (10, 2, 3),
    (12, 3, 12),
    (1, 12, 17),
    (15, 20, 11),
    (17, 8, 6),
    (4, 15, 8),
    (16, 10, 14),
    (9, 17, 1),
    (19, 6, 16),
    (3, 16, 15),
    (18, 13, 2),
    (11, 14, 9),
)

REVERSE_MAPPED = (
    (108.21, 980.97, 4893.50),
    (96.18, 988.44, 4986.25),
    (107.62, 902.21, 4905.71),
    (93.13, 953.37, 4941.81),
    (95.50, 1052.34, 5232.96),
    (99.72, 984.87, 5212.25),
    (98.99, 971.09, 4835.05),
    (116.75, 1057.63, 5437.43),
    (103.69, 941.48, 4824.95),
    (105.59, 952.13, 4954.28),
    (87.62, 990.58, 5158.64),
    (109.81, 1086.34, 4950.48),
    (110.63, 981.80, 4900.79),
    (95.24, 1025.13, 4928.80),
    (109.96, 986.70, 5084.18),
    (100.87, 1031.74, 4495.19),
    (115.53, 972.20, 5143.05),
    (93.16, 1027.64, 5108.54),
    (113.76, 1005.19, 4714.76),
    (104.74, 1023.96, 4931.16),
)

# masked minus reverse-mapped: the rank-neutral residual
RESIDUAL_NOISE = (
    (-0.03, -8.35, -16.77),
    (0.42, 32.29, 18.79),
    (-2.36, -19.29, -5.03),
    (-5.11, -8.83, 7.97),
    (-3.93, 5.49, 34.61),
    (0.69, 6.47, 18.39),
    (1.32, -11.20, -11.02),
    (6.62, 3.60, 13.27),
    (-0.57, -38.23, -72.92),
    (-0.77, -39.36, 43.33),
    (0.21, 34.43, 7.99),
    (2.40, -3.91, 37.96),
    (3.66, 7.13, -11.04),
    (-4.41, 24.45, -26.76),
    (3.68, 15.49, -63.47),
    (2.20, 20.29, 24.07),
    (1.47, -9.36, -55.15),
    (-3.73, 22.33, -35.75),
    (2.03, 30.91, -52.03),
    (-0.74, 13.04, 0.83),
)

# masked minus original: what a purely additive view would call the noise
DIRECT_NOISE = (
    (4.49, -9.18, -52.07),
    (3.47, 39.76, 73.88),
    (4.39, -19.29, -207.86),
    (-7.22, -8.83, -134.40),
    (-4.61, -28.51, 55.32),
    (7.25, 4.64, -2.32),
    (4.81, 7.76, -0.92),
    (7.84, 72.79, 13.27),
    (4.13, -38.23, -83.02),
    (-5.14, -72.10, 47.13),
    (-11.89, 19.82, 7.99),
    (-4.54, 24.80, 2.19),
    (6.67, -36.20, -64.53),
    (3.21, 17.84, -3.67),
    (3.83, 31.10, 78.90),
    (-7.56, -0.31, 24.07),
    (3.24, -9.36, 194.40),
    (-16.16, 22.33, -70.26),
    (7.58, 45.52, -52.03),
    (-0.74, 13.04, 31.20),
)

RANK_CORRELATIONS = (0.722, 0.844, 0.776)

# Distance evidence for original record 3 against the masked table:
# nearest masked value per attribute, its rank, and per-masked-record rank
# deviations (d1, d2, d3, max).
RECORD3 = {
    "record": (100.87, 902.21, 5108.54),
    "closest_values": (100.41, 903.25, 5087.90),
    "closest_ranks": (8, 2, 16),
    "matched_index": 10,
    "matched_deviations": (4, 1, 4),
    "distance": 4,
    "window_variances": (24.70, 896.76, 20167.78),
}

RECORD3_DEVIATIONS = (
    (6, 5, 11, 11),
    (2, 9, 3, 9),
    (5, 1, 9, 9),
    (6, 2, 6, 6),
    (3, 16, 3, 16),
    (0, 7, 2, 7),
    (1, 3, 12, 12),
    (12, 17, 4, 17),
    (2, 0, 13, 13),
    (4, 1, 4, 4),
    (7, 10, 1, 10),
    (7, 18, 5, 18),
    (9, 6, 10, 10),
    (4, 13, 8, 13),
    (8, 8, 2, 8),
    (1, 15, 15, 15),
    (11, 4, 0, 11),
    (5, 14, 1, 14),
    (10, 11, 14, 14),
    (3, 12, 7, 12),
)

# Dataset certificate against the masked table: per record the first matched
# masked record, the record distance d_i, window variances at the dataset
# distance d=1, and window variances at d_i.
CERTIFICATE = {
    "dataset_distance": 1,
    "dataset_variances": (0.01, 11.07, 30.26),
    "matched": (1, 2, 10, 6, 5, 6, 7, 17, 7, 13, 6, 12, 20, 14, 10, 19, 13, 15, 1, 20),
    "distances": (4, 4, 4, 4, 2, 3, 1, 4, 1, 4, 1, 4, 3, 3, 4, 4, 1, 3, 2, 2),
    "variances_at_d": (
        (0.48, 69.14, 388.07),
        (6.57, 69.14, 388.07),
        (1.63, 155.00, 1692.52),
        (12.83, 64.36, 1692.52),
        (12.83, 112.36, 1738.89),
        (6.57, 69.14, 1738.89),
        (12.83, 385.03, 2612.38),
        (1.23, 69.14, 8384.15),
        (3.14, 385.03, 2612.38),
        (8.12, 69.14, 555.30),
        (3.14, 147.25, 3407.82),
        (11.06, 14.43, 429.60),
        (8.12, 41.95, 555.30),
        (0.01, 29.73, 208.80),
        (8.12, 115.82, 555.30),
        (5.34, 11.07, 5145.91),
        (0.75, 115.82, 95.84),
        (2.22, 41.95, 3407.82),
        (8.12, 33.26, 4352.91),
        (0.27, 41.95, 30.26),
    ),
    "variances_at_di": (
        (12.45, 682.15, 2170.53),
        (31.12, 682.15, 2170.53),
        (24.70, 896.76, 20167.78),
        (32.47, 1332.66, 20167.78),
        (16.94, 118.46, 14751.48),
        (22.88, 414.40, 16208.14),
        (12.83, 385.03, 2612.38),
        (18.76, 682.15, 14751.48),
        (3.14, 385.03, 2612.38),
        (21.96, 682.15, 2257.38),
        (3.14, 147.25, 3407.82),
        (13.03, 169.01, 2952.80),
        (16.70, 359.80, 1676.76),
        (1.47, 248.09, 1313.97),
        (21.96, 937.01, 2257.38),
        (22.74, 190.00, 15949.39),
        (0.75, 115.82, 95.84),
        (14.82, 359.80, 18406.42),
        (12.76, 252.94, 15949.39),
        (2.94, 160.52, 334.85),
    ),
}

# Maximum-knowledge linkage of original records to reverse-mapped records:
# every minimum-distance target, plus the distance.
LINKAGE_MATCHES = (
    (1, 7),
    (4,),
    (10,),
    (4,),
    (5,),
    (11,),
    (7,),
    (17,),
    (7, 9),
    (15,),
    (2, 6),
    (12,),
    (20,),
    (14,),
    (10,),
    (19,),
    (13,),
    (12,),
    (13, 19),
    (20,),
)
LINKAGE_DISTANCES = (4, 3, 3, 4, 2, 2, 2, 5, 3, 3, 4, 5, 3, 3, 3, 5, 2, 5, 4, 3)
LINKAGE_UNMATCHED = (3, 8, 16, 18)
LINKAGE_MULTIPLY_MATCHED = (4, 7, 10, 12, 13, 19, 20)

# A record assembled from independent per-attribute draws out of the original
# columns (values of records 5, 19 and 10). It exists in neither table, yet
# still finds a reverse-mapped match at distance 2, namely record 2.
SYNTHETIC_PROBE = {
    "record": (96.18, 990.58, 4950.48),
    "distance": 2,
    "matched_index": 2,
    "matched_values": (96.18, 988.44, 4986.25),
}

# Distance distributions against the reverse-mapped table: the 20 original
# records vs the exhaustive 8000-record independent-draw baseline.
DISTANCE_FREQ_ORIGINAL = {
    0: 0.0000,
    1: 0.0000,
    2: 0.2000,
    3: 0.4000,
    4: 0.2000,
    5: 0.2000,
    6: 0.0000,
    7: 0.0000,
    8: 0.0000,
    9: 0.0000,
    10: 0.0000,
}
DISTANCE_FREQ_BASELINE = {
    0: 0.0025,
    1: 0.0586,
    2: 0.1899,
    3: 0.3014,
    4: 0.2595,
    5: 0.1288,
    6: 0.0428,
    7: 0.0143,
    8: 0.0024,
    9: 0.0000,
    10: 0.0000,
}

# Reference baseline distribution from a 1000-record run with tiny noise
# (sigmas 0.05, 0.25, 1): random records almost never match closely.  The
# >= 15 tail is folded into the 15 bin.
SMALL_NOISE_FREQ_BASELINE = {
    2: 0.0001,
    3: 0.0002,
    4: 0.0005,
    5: 0.0003,
    6: 0.0006,
    7: 0.0013,
    8: 0.0012,
    9: 0.0019,
    10: 0.0028,
    11: 0.0027,
    12: 0.0032,
    13: 0.0032,
    14: 0.0054,
    15: 0.9766,
}


def running_example() -> tuple[MicrodataTable, MicrodataTable]:
    """The bundled (original, masked) table pair."""
    original = MicrodataTable(_ORIGINAL, ATTRIBUTES, role=Role.ORIGINAL)
    masked = MicrodataTable(_MASKED, ATTRIBUTES, role=Role.ANONYMIZED)
    return original, masked
