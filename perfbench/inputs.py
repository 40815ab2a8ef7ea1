"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same records in the same order, and the program under test sees only the
records (never the seed).  Record-driven workloads (``ingest``,
``dashboard``, ``gateway``) draw from one model of a district deployment:

* motes and stations whose property spellings and units come from
  :data:`repro.sensors.heterogeneity.VENDOR_PROFILES` (naming and unit
  heterogeneity the mediator must resolve),
* about 5% ``ik_sighting`` records from several observers per district,
  spread over enough simulated weeks that the IK rules fire repeatedly
  despite their 7-day cooldown,
* about 1% records carrying a vendor term no alignment resolves, so the
  mediator's reject path runs on every poll cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ik.indicators import INDICATOR_CATALOGUE
from repro.ontologies.units import convert
from repro.sensors.heterogeneity import VENDOR_PROFILES
from repro.sensors.modality import MODALITIES
from repro.streams.messages import ObservationRecord

DAY = 86400.0
IK_SHARE = 0.05
UNRESOLVED_SHARE = 0.01
#: Vendor spellings no alignment method resolves (checked by the benchmark's
#: correctness pass: every one of them must be rejected by ``mediate``).
UNRESOLVABLE_TERMS = ("quantum_flux", "gamma_counts", "tachyon density", "xyzzy")
MOTES_PER_DISTRICT = 6

ValueRanges = Optional[Dict[str, Tuple[float, float]]]
OBSERVERS_PER_DISTRICT = 4


@dataclass(frozen=True)
class Source:
    source_id: str
    area: str
    profile: str
    properties: Tuple[str, ...]
    location: Tuple[float, float]


def district_names(count: int) -> List[str]:
    return [f"district{index}" for index in range(count)]


def _sources(districts: List[str], keys: Optional[Iterable[str]]) -> Dict[str, List[Source]]:
    """The deployment layout: the same for every seed.

    Profiles and reported properties are assigned round-robin, so the mix
    of spellings, units and properties — and with it the work per record —
    does not depend on the seed; only the readings do.
    """
    allowed = set(MODALITIES if keys is None else keys)
    profiles = [
        profile
        for _name, profile in sorted(VENDOR_PROFILES.items())
        if allowed & set(profile.property_names)
    ]
    layout: Dict[str, List[Source]] = {}
    for index, district in enumerate(districts):
        sources = []
        for mote in range(MOTES_PER_DISTRICT):
            slot = index * MOTES_PER_DISTRICT + mote
            profile = profiles[slot % len(profiles)]
            spelled = sorted(key for key in profile.property_names if key in allowed)
            start = slot % len(spelled)
            properties = tuple((spelled[start:] + spelled[:start])[:3])
            sources.append(
                Source(
                    source_id=f"{district}-mote-{mote:02d}",
                    area=district,
                    profile=profile.name,
                    properties=properties,
                    location=(-29.0 + 0.1 * index, 26.0 + 0.01 * mote),
                )
            )
        layout[district] = sources
    return layout


def _sensor_record(
    rng: random.Random, source: Source, timestamp: float, ranges: ValueRanges
) -> ObservationRecord:
    profile = VENDOR_PROFILES[source.profile]
    key = rng.choice(source.properties)
    modality = MODALITIES[key]
    low, high = (ranges or {}).get(key, (modality.minimum, modality.maximum))
    canonical = rng.uniform(low, high)
    unit = profile.unit_for(key, modality.canonical_unit)
    value = convert(canonical, modality.canonical_unit, unit)
    return ObservationRecord(
        source_id=source.source_id,
        source_kind="wsn_mote",
        property_name=profile.spell(key),
        value=round(value, 3),
        unit=unit,
        timestamp=timestamp,
        location=source.location,
        metadata={"area": source.area, "profile": profile.name},
    )


def _sighting_record(rng: random.Random, district: str, timestamp: float) -> ObservationRecord:
    observer = f"{district}-observer-{rng.randrange(OBSERVERS_PER_DISTRICT)}"
    return ObservationRecord(
        source_id=observer,
        source_kind="ik_sighting",
        property_name=rng.choice(sorted(INDICATOR_CATALOGUE)),
        value=round(rng.uniform(0.3, 1.0), 3),
        unit=None,
        timestamp=timestamp,
        metadata={"observer": observer, "schema": "ik_sighting", "area": district},
    )


def _unresolvable_record(rng: random.Random, source: Source, timestamp: float) -> ObservationRecord:
    return ObservationRecord(
        source_id=source.source_id,
        source_kind="wsn_mote",
        property_name=rng.choice(UNRESOLVABLE_TERMS),
        value=round(rng.uniform(0.0, 10.0), 3),
        unit="?",
        timestamp=timestamp,
        location=source.location,
        metadata={"area": source.area, "profile": source.profile},
    )


def district_polls(
    seed: int,
    districts: int,
    polls_per_district: int,
    records_per_poll: int,
    span_days: float,
    ranges: ValueRanges = None,
) -> List[Tuple[str, List[ObservationRecord]]]:
    """Per-district poll batches in arrival order.

    Polls go round-robin over the districts; poll ``j`` of every district
    covers the ``j``-th slice of the ``span_days`` window, so timestamps
    rise across the stream the way an interface-layer poller sees them.
    ``ranges`` (canonical key -> canonical value range) restricts the motes
    to those properties and values; by default every modality a vendor
    profile spells is reported over its whole physical range.
    """
    rng = random.Random(seed)
    names = district_names(districts)
    layout = _sources(names, None if ranges is None else ranges.keys())
    slice_seconds = span_days * DAY / polls_per_district
    step = slice_seconds / records_per_poll
    polls = []
    for poll in range(polls_per_district):
        for district in names:
            start = poll * slice_seconds
            records = []
            for index in range(records_per_poll):
                timestamp = start + index * step + rng.uniform(0.0, step)
                draw = rng.random()
                if draw < IK_SHARE:
                    records.append(_sighting_record(rng, district, timestamp))
                elif draw < IK_SHARE + UNRESOLVED_SHARE:
                    records.append(
                        _unresolvable_record(rng, rng.choice(layout[district]), timestamp)
                    )
                else:
                    records.append(
                        _sensor_record(rng, rng.choice(layout[district]), timestamp, ranges)
                    )
            polls.append((district, records))
    return polls
