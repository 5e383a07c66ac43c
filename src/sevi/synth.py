"""Seeded synthetic fixtures: a small city worth of observation tables, and
an offline brand-decoding corpus with deterministic model fixtures.

Everything is driven by one RNG seed; the analysis pipeline itself consumes
only the written files and is seed-free.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import brandsem
from .geodata import (ANCHORS_HEADER, BRANDS_HEADER, LBS_HEADER, PERIODS,
                      POINTS_HEADER, POIS_HEADER, SEGMENTS_HEADER,
                      metric_to_lonlat, project_to_metric)
from .pipeline import write_csv, write_json

CENTER_LON, CENTER_LAT = 118.78, 32.06
POINT_SPACING_M = 20.0
PANORAMA_PIXELS = 1024 * 800

# weekday/weekend tidal coupling strengths and noise scales, keyed by period
_PERIOD_AMP = {"wd_am": 55.0, "wd_md": 300.0, "wd_pm": 260.0, "wd_nt": 165.0,
               "we_am": 75.0, "we_md": 285.0, "we_pm": 250.0, "we_nt": 195.0}
_PERIOD_NOISE = {"wd_am": 55.0, "wd_md": 22.0, "wd_pm": 24.0, "wd_nt": 30.0,
                 "we_am": 50.0, "we_md": 23.0, "we_pm": 25.0, "we_nt": 28.0}


def _hotspot_intensity(x, y, centers, scales, amps):
    total = np.zeros_like(x)
    for (cx, cy), s, a in zip(centers, scales, amps):
        total = total + a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
    return np.clip(total, 0.0, 1.0)


def generate_city(outdir, seed: int = 20251015, n_segments: int = 160,
                  n_pois: int = 2500) -> dict:
    """Write points/segments/anchors/pois/lbs/brands CSVs under `outdir`.

    Roughly 2,000 sampling points on a jittered street grid, 20 anchors in
    four categories (one singleton, to exercise bandwidth imputation), and
    tidal crowd intensities whose coupling to the built environment is
    strongest at midday and weakest in the morning.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    x0, y0 = project_to_metric(CENTER_LON, CENTER_LAT)

    extent = 2400.0
    hotspots = [(x0 - 500.0, y0 + 300.0), (x0 + 700.0, y0 - 200.0), (x0, y0 - 800.0)]
    hotspot_scales = [650.0, 500.0, 420.0]
    hotspot_amps = [0.9, 0.75, 0.6]

    # --- segments and sampling points -------------------------------------
    grid = int(math.ceil(math.sqrt(n_segments)))
    seg_rows = []
    point_rows = []
    seg_meta = []
    idx = 0
    for gy in range(grid):
        for gx in range(grid):
            if idx >= n_segments:
                break
            sid = f"s{idx:04d}"
            sx = x0 - extent / 2 + (gx + 0.5) * extent / grid + rng.uniform(-60, 60)
            sy = y0 - extent / 2 + (gy + 0.5) * extent / grid + rng.uniform(-60, 60)
            horizontal = (gx + gy) % 2 == 0
            n_pts = int(rng.integers(10, 16))
            length = POINT_SPACING_M * n_pts
            seg_rows.append((sid, f"{length:.1f}"))
            seg_meta.append((sid, sx, sy, horizontal, n_pts))
            idx += 1

    pxs, pys, pids, seg_of_point = [], [], [], []
    for sid, sx, sy, horizontal, n_pts in seg_meta:
        for k in range(n_pts):
            off = (k - (n_pts - 1) / 2.0) * POINT_SPACING_M
            px = sx + (off if horizontal else 0.0)
            py = sy + (0.0 if horizontal else off)
            pxs.append(px)
            pys.append(py)
            pids.append(f"p{len(pids):06d}")
            seg_of_point.append((sid, k))
    pxs = np.array(pxs)
    pys = np.array(pys)
    intensity = _hotspot_intensity(pxs, pys, hotspots, hotspot_scales, hotspot_amps)

    brand_rows = []
    for i, pid in enumerate(pids):
        inten = intensity[i]
        lon, lat = metric_to_lonlat(pxs[i], pys[i])
        counts = {}
        for side in ("left", "right"):
            ns = int(rng.poisson(1.5 + 9.0 * inten))
            counts[f"signboards_{side}"] = ns
            counts[f"closed_{side}"] = int(rng.binomial(ns, min(0.95, 0.06 + 0.30 * (1 - inten)))) if ns else 0
            counts[f"glass_{side}"] = int(rng.poisson(0.8 + 6.0 * inten))
            counts[f"persons_{side}"] = int(rng.poisson(0.8 + 11.0 * inten))
            counts[f"motor_{side}"] = int(rng.poisson(1.0 + 7.0 * inten))
            counts[f"nonmotor_{side}"] = int(rng.poisson(0.5 + 4.5 * inten))
            gfrac = min(0.92, max(0.0, rng.normal(0.10 + 0.38 * (1 - inten), 0.05)))
            counts[f"green_pixels_{side}"] = int(gfrac * PANORAMA_PIXELS)
            counts[f"total_pixels_{side}"] = PANORAMA_PIXELS
        sid, order = seg_of_point[i]
        point_rows.append((pid, f"{lon:.10f}", f"{lat:.10f}", sid, order)
                          + tuple(counts[c] for c in POINTS_HEADER[5:]))

        ns_total = counts["signboards_left"] + counts["signboards_right"]
        branded = int(rng.binomial(ns_total, 0.65)) if ns_total else 0
        p_int = 0.05 + 0.50 * inten
        p_loc = 0.28 + 0.07 * inten
        draws = rng.multinomial(branded, [p_int, p_loc, 1.0 - p_int - p_loc]) if branded else (0, 0, 0)
        brand_rows.append((pid, int(draws[1]), int(draws[0]), int(draws[2])))

    # --- anchors ------------------------------------------------------------
    anchor_rows = []
    anchor_specs = [
        ("market", 10, 550.0),
        ("shopping_center", 6, 900.0),
        ("mixed_complex", 3, 1500.0),
        ("flagship", 1, 0.0),  # singleton: bandwidth must be imputed
    ]
    a_idx = 0
    for category, count, spread in anchor_specs:
        base = hotspots[a_idx % len(hotspots)]
        for _ in range(count):
            ax = base[0] + rng.normal(0.0, max(spread, 200.0))
            ay = base[1] + rng.normal(0.0, max(spread, 200.0))
            lon, lat = metric_to_lonlat(ax, ay)
            anchor_rows.append((f"a{a_idx:03d}", category, f"{lon:.10f}", f"{lat:.10f}"))
            a_idx += 1

    # --- POIs ---------------------------------------------------------------
    poi_rows = []
    categories = ("catering", "shopping", "leisure", "life_service")
    for i in range(n_pois):
        if rng.uniform() < 0.8:
            h = int(rng.integers(0, len(hotspots)))
            qx = hotspots[h][0] + rng.normal(0.0, hotspot_scales[h])
            qy = hotspots[h][1] + rng.normal(0.0, hotspot_scales[h])
        else:
            qx = x0 + rng.uniform(-extent / 2, extent / 2)
            qy = y0 + rng.uniform(-extent / 2, extent / 2)
        inten = float(_hotspot_intensity(np.array([qx]), np.array([qy]),
                                         hotspots, hotspot_scales, hotspot_amps)[0])
        lon, lat = metric_to_lonlat(qx, qy)
        poi_rows.append((f"q{i:05d}", f"{lon:.10f}", f"{lat:.10f}",
                         categories[int(rng.integers(0, len(categories)))],
                         int(rng.uniform() < 0.08 + 0.55 * inten)))

    # --- LBS tidal crowd intensities ----------------------------------------
    seg_drive = {}
    for sid, sx, sy, horizontal, n_pts in seg_meta:
        inten = float(_hotspot_intensity(np.array([sx]), np.array([sy]),
                                         hotspots, hotspot_scales, hotspot_amps)[0])
        # mild west-east modulation so local GWR coefficients vary in space
        regional = 1.0 + 0.35 * math.sin(2.0 * math.pi * (sx - x0 + extent / 2) / extent)
        seg_drive[sid] = inten * regional
    lbs_rows = []
    for sid, _, _, _, _ in seg_meta:
        for period in PERIODS:
            uv = 30.0 + _PERIOD_AMP[period] * seg_drive[sid] + rng.normal(0.0, _PERIOD_NOISE[period])
            lbs_rows.append((sid, period, f"{max(uv, 0.0):.3f}"))

    write_csv(outdir / "points.csv", POINTS_HEADER, zip(*point_rows))
    write_csv(outdir / "segments.csv", SEGMENTS_HEADER, zip(*seg_rows))
    write_csv(outdir / "anchors.csv", ANCHORS_HEADER, zip(*anchor_rows))
    write_csv(outdir / "pois.csv", POIS_HEADER, zip(*poi_rows))
    write_csv(outdir / "lbs.csv", LBS_HEADER, zip(*lbs_rows))
    write_csv(outdir / "brands.csv", BRANDS_HEADER, zip(*brand_rows))

    return {"points": len(point_rows), "segments": len(seg_rows),
            "anchors": len(anchor_rows), "pois": len(poi_rows),
            "lbs_records": len(lbs_rows)}


# ---------------------------------------------------------------------------
# brand corpus
# ---------------------------------------------------------------------------

_REFERENCE_BRANDS = {
    "Starbucks": {"tier": "International", "aliases": ["星巴克", "STARBUCKS COFFEE"]},
    "McDonald's": {"tier": "International", "aliases": ["麦当劳", "McDonalds"]},
    "Uniqlo": {"tier": "International", "aliases": ["优衣库"]},
    "Watsons": {"tier": "International", "aliases": ["屈臣氏"]},
    "Muji": {"tier": "International", "aliases": ["無印良品", "无印良品"]},
    "Golden Phoenix Bakery": {"tier": "Local", "aliases": ["金凤呈祥"]},
    "Jinling Teahouse": {"tier": "Local", "aliases": ["金陵茶馆"]},
    "Yangtze Noodles": {"tier": "Local", "aliases": ["扬子面馆"]},
    "South Gate Books": {"tier": "Local", "aliases": []},
    "Corner Grocery": {"tier": "Ordinary", "aliases": ["街角便利店"]},
    "Sunrise Laundry": {"tier": "Ordinary", "aliases": []},
    "Lucky Hardware": {"tier": "Ordinary", "aliases": []},
}

# strings the reference db cannot resolve; the fixture "model" answers them
_MODEL_KNOWN = {
    "Blue Harbor Cafe": "Local",
    "Nova Sports": "International",
    "Mr. Wang Repairs": "Ordinary",
    "Green Leaf Tea": "Local",
    "Pixel Arcade": "Ordinary",
}

# deliberately left unanswered by the fixture model: exercises the
# Ordinary-with-flag fallback
_MODEL_SILENT = "Mystery Sign 9"


def generate_brand_corpus(outdir, seed: int = 7, n_images: int = 50) -> dict:
    """Write corpus.csv, reference_db.json, fixtures.json, ground_truth.csv
    and a degraded predictions.csv under `outdir`.

    Fixture responses are keyed by the exact request hashes the decoding
    pipeline will issue, so an offline decode is total and deterministic.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    db = brandsem.ReferenceDb.from_mapping(_REFERENCE_BRANDS)

    alias_pool = []
    for canonical, spec in _REFERENCE_BRANDS.items():
        alias_pool.append(canonical)
        alias_pool.extend(spec["aliases"])
        alias_pool.append(canonical.upper())        # case variant
        alias_pool.append(f"  {canonical}  ")       # whitespace variant
    model_pool = sorted(_MODEL_KNOWN)

    fixtures: dict[str, str] = {}
    corpus_rows = []
    gt_rows = []
    truth: dict[str, list[tuple[str, str]]] = {}

    for i in range(n_images):
        image_id = f"img{i + 1:04d}"
        point_id = f"p{int(rng.integers(0, 2000)):06d}"
        corpus_rows.append((image_id, point_id))

        n_brands = int(rng.integers(0, 5))
        raw: list[str] = []
        for _ in range(n_brands):
            r = rng.uniform()
            if r < 0.62:
                raw.append(alias_pool[int(rng.integers(0, len(alias_pool)))])
            elif r < 0.9:
                raw.append(model_pool[int(rng.integers(0, len(model_pool)))])
            else:
                raw.append(_MODEL_SILENT)
        # dedupe, preserving draw order
        seen = set()
        raw = [b for b in raw if not (b in seen or seen.add(b))]

        summary = f"storefront with {len(raw)} readable sign(s)" if raw else "no readable signage"
        s1_text = json.dumps({"brands_found": raw, "summary": summary}, ensure_ascii=False)
        if i % 7 == 3:  # some responses arrive fenced
            s1_text = f"```json\n{s1_text}\n```"
        fixtures[brandsem.request_hash(brandsem.stage1_request(image_id))] = s1_text

        pending = [b for b in dict.fromkeys(raw) if db.resolve(b) is None]
        if pending:
            answer = {b: _MODEL_KNOWN[b] for b in pending if b in _MODEL_KNOWN}
            s2_req = brandsem.stage2_request(image_id, db, pending)
            fixtures[brandsem.request_hash(s2_req)] = json.dumps(answer, ensure_ascii=False)

        pairs = []
        for b in raw:
            hit = db.resolve(b)
            if hit is not None:
                pairs.append((hit[0], hit[1]))
            elif b in _MODEL_KNOWN:
                pairs.append((b, _MODEL_KNOWN[b]))
            else:
                pairs.append((b, "Ordinary"))
        truth[image_id] = pairs
        for brand, tier in pairs:
            gt_rows.append((image_id, brand, tier))

    # degraded predictions: drops and tier confusions at planted rates
    pred_rows = []
    other_tier = {"International": "Local", "Local": "Ordinary", "Ordinary": "International"}
    for image_id in sorted(truth):
        for brand, tier in truth[image_id]:
            r = rng.uniform()
            if r < 0.15:
                continue  # missed detection
            if r < 0.30:
                pred_rows.append((image_id, brand, other_tier[tier]))
            else:
                pred_rows.append((image_id, brand, tier))

    write_json(outdir / "reference_db.json", _REFERENCE_BRANDS)
    write_json(outdir / "fixtures.json", fixtures)

    write_csv(outdir / "corpus.csv", tuple(brandsem.CORPUS_SCHEMA), zip(*corpus_rows))
    write_csv(outdir / "ground_truth.csv", tuple(brandsem.LABELED_SCHEMA), zip(*gt_rows))
    write_csv(outdir / "predictions.csv", tuple(brandsem.LABELED_SCHEMA), zip(*pred_rows))

    return {"images": n_images, "fixtures": len(fixtures),
            "gt_pairs": len(gt_rows), "predicted_pairs": len(pred_rows)}
