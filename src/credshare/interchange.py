"""JSON interchange for game instances and churn scenarios.

Instance document:
    {"uploader_capacity": 2,
     "peers": [{"id": "peer1", "credits": 400, "capacity": 2}, ...]}

Scenario document:
    {"uploader_capacity": 2,
     "events": [{"time": 20, "kind": "join",
                 "peer": {"id": "peer1", "credits": 400, "capacity": 2}},
                {"time": 40, "kind": "leave", "peer": {"id": "peer1"}},
                {"time": 30, "kind": "settle", "duration": 1.0}]}

Leave events accept either a "peer" object carrying just the id or a flat
"peer_id" field. All malformed input raises ValidationError.
"""

import json
from typing import Sequence, Tuple

from .errors import ValidationError
from .model import GameInstance, PeerProfile, _require_finite
from .simulator import EventKind, ScenarioEvent


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _peer_from_dict(obj) -> PeerProfile:
    if not isinstance(obj, dict) or "id" not in obj:
        raise ValidationError(f"peer object must carry an id: {obj!r}")
    missing = [k for k in ("credits", "capacity") if k not in obj]
    if missing:
        raise ValidationError(f"peer {obj.get('id')!r} missing {missing}")
    return PeerProfile(id=obj["id"], credits=obj["credits"], capacity=obj["capacity"])


def instance_from_dict(doc) -> GameInstance:
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    try:
        capacity = _require_finite("uploader_capacity", doc["uploader_capacity"])
        peers = doc["peers"]
    except KeyError as exc:
        raise ValidationError(f"instance document missing {exc}") from exc
    if not isinstance(peers, list):
        raise ValidationError("peers must be a list")
    return GameInstance(capacity, [_peer_from_dict(p) for p in peers])


def load_instance(path) -> GameInstance:
    return instance_from_dict(_load_json(path))


def instance_to_dict(game: GameInstance) -> dict:
    return {
        "uploader_capacity": game.uploader_capacity,
        "peers": [
            {"id": p.id, "credits": p.credits, "capacity": p.capacity}
            for p in game.peers
        ],
    }


def save_instance(game: GameInstance, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(instance_to_dict(game), fh, indent=2)
        fh.write("\n")


def event_from_dict(obj) -> ScenarioEvent:
    if not isinstance(obj, dict) or "time" not in obj or "kind" not in obj:
        raise ValidationError(f"event must carry time and kind: {obj!r}")
    kind = str(obj["kind"]).lower()
    if kind == "join":
        if "peer" not in obj:
            raise ValidationError("join event requires a peer object")
        return ScenarioEvent(obj["time"], EventKind.JOIN,
                             peer=_peer_from_dict(obj["peer"]))
    if kind == "leave":
        peer_id = obj.get("peer_id")
        if peer_id is None and isinstance(obj.get("peer"), dict):
            peer_id = obj["peer"].get("id")
        if not peer_id:
            raise ValidationError("leave event requires a peer id")
        return ScenarioEvent(obj["time"], EventKind.LEAVE, peer_id=peer_id)
    if kind == "settle":
        return ScenarioEvent(obj["time"], EventKind.SETTLE,
                             duration=obj.get("duration", 1.0))
    raise ValidationError(f"unknown event kind {obj['kind']!r}")


def scenario_from_dict(doc) -> Tuple[float, Tuple[ScenarioEvent, ...]]:
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    try:
        capacity = _require_finite("uploader_capacity", doc["uploader_capacity"])
        events = doc["events"]
    except KeyError as exc:
        raise ValidationError(f"scenario document missing {exc}") from exc
    if not isinstance(events, list):
        raise ValidationError("events must be a list")
    return capacity, tuple(event_from_dict(e) for e in events)


def load_scenario(path) -> Tuple[float, Tuple[ScenarioEvent, ...]]:
    return scenario_from_dict(_load_json(path))


def scenario_to_dict(uploader_capacity: float,
                     events: Sequence[ScenarioEvent]) -> dict:
    out = []
    for ev in events:
        if ev.kind is EventKind.JOIN:
            out.append({"time": ev.time, "kind": "join",
                        "peer": {"id": ev.peer.id, "credits": ev.peer.credits,
                                 "capacity": ev.peer.capacity}})
        elif ev.kind is EventKind.LEAVE:
            out.append({"time": ev.time, "kind": "leave",
                        "peer": {"id": ev.peer_id}})
        else:
            out.append({"time": ev.time, "kind": "settle",
                        "duration": ev.duration})
    return {"uploader_capacity": uploader_capacity, "events": out}


def save_scenario(uploader_capacity: float, events: Sequence[ScenarioEvent], path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(uploader_capacity, events), fh, indent=2)
        fh.write("\n")
