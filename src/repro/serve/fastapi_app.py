"""Optional FastAPI/pydantic adapter for the serving tier.

Import-guarded: importing this module is always safe, but
:func:`create_app` raises :class:`~repro.exceptions.ServeError` unless
``fastapi`` is installed (CI installs it; the library never requires it —
the stdlib transport in :mod:`repro.serve.http` is the tier-1 path).

The app mirrors the stdlib transport's routes one-for-one.  Pydantic
models type the OpenAPI surface, but every body is re-validated through
the stdlib dataclass schemas in :mod:`repro.serve.schemas`, so both
transports enforce identical rules and emit the identical
``{"error": {"code", "message", "detail"}}`` envelope.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.exceptions import ServeError
from repro.obs.export import to_prometheus
from repro.serve import schemas
from repro.serve.service import TenantManager

try:  # pragma: no cover - exercised only where fastapi is installed
    import fastapi
    from pydantic import BaseModel
except ImportError:  # pragma: no cover
    fastapi = None
    BaseModel = object

__all__ = ["FASTAPI_AVAILABLE", "create_app"]

FASTAPI_AVAILABLE = fastapi is not None


class CreateTenantBody(BaseModel):
    dataset_id: str
    attributes: list[str]
    heads: list[str] | None = None
    values: list[Any] = []


class AppendBody(BaseModel):
    rows: list[Any]


class SimilarityBody(BaseModel):
    first: str
    second: str


class NeighborsBody(BaseModel):
    attribute: str
    limit: int | None = None
    min_similarity: float = 0.0


class ClustersBody(BaseModel):
    t: int | None = None
    first_center: str | None = None


class DominatorsBody(BaseModel):
    algorithm: str = "set-cover"
    top_fraction: float | None = None
    target: list[str] | None = None


class ClassifyBody(BaseModel):
    evidence: dict[str, Any]
    targets: list[str] | None = None


def _dump(model: Any) -> dict[str, Any]:
    """``model_dump`` (pydantic v2) with a ``dict()`` (v1) fallback."""
    dump = getattr(model, "model_dump", None)
    return dump() if dump is not None else model.dict()


def create_app(manager: TenantManager) -> "fastapi.FastAPI":
    """A FastAPI app bound to ``manager`` (requires ``fastapi``)."""
    if not FASTAPI_AVAILABLE:
        raise ServeError(
            "fastapi is not installed; use repro.serve.http (stdlib) or "
            "pip install fastapi"
        )
    from fastapi import FastAPI, Request
    from fastapi.encoders import jsonable_encoder
    from fastapi.exceptions import RequestValidationError as FastAPIValidationError
    from fastapi.responses import JSONResponse, PlainTextResponse

    app = FastAPI(title="repro.serve", version="1")
    app.state.manager = manager

    def _envelope_response(error: BaseException) -> JSONResponse:
        envelope = schemas.envelope_for(error)
        return JSONResponse(
            status_code=envelope.http_status, content=envelope.to_dict()
        )

    @app.exception_handler(Exception)
    async def _on_error(request: Request, error: Exception) -> JSONResponse:
        return _envelope_response(error)

    @app.exception_handler(FastAPIValidationError)
    async def _on_validation(
        request: Request, error: FastAPIValidationError
    ) -> JSONResponse:
        return JSONResponse(
            status_code=400,
            content={
                "error": {
                    "code": "bad_request",
                    "message": "request body failed validation",
                    "detail": {"errors": jsonable_encoder(error.errors())},
                }
            },
        )

    ops = fastapi.APIRouter()

    @ops.get("/health")
    def health() -> Any:
        health = schemas.HealthResponse.build(manager.stats())
        return JSONResponse(status_code=health.http_status, content=health.to_dict())

    @ops.get("/stats")
    def stats() -> dict[str, Any]:
        return schemas.StatsResponse.build(manager.stats()).to_dict()

    @ops.get("/metrics", response_class=PlainTextResponse)
    def metrics() -> str:
        return to_prometheus(obs.active_registry())

    tenants = fastapi.APIRouter(prefix="/v1/tenants")

    @tenants.get("")
    def list_tenants() -> dict[str, Any]:
        return {"datasets": list(manager.known_datasets())}

    @tenants.post("", status_code=201)
    def create_tenant(body: CreateTenantBody) -> dict[str, Any]:
        request = schemas.CreateTenantRequest.from_dict(_dump(body))
        stats = manager.create_tenant(
            request.dataset_id,
            request.attributes,
            heads=request.heads,
            values=request.values,
        )
        return schemas.TenantResponse.build(stats).to_dict()

    @tenants.get("/{dataset_id}")
    def tenant_stats(dataset_id: str) -> dict[str, Any]:
        return schemas.TenantResponse.build(manager.tenant_stats(dataset_id)).to_dict()

    @tenants.delete("/{dataset_id}")
    def evict(dataset_id: str) -> dict[str, Any]:
        return {"dataset_id": dataset_id, "evicted": manager.evict(dataset_id)}

    @tenants.post("/{dataset_id}/append")
    def append(dataset_id: str, body: AppendBody) -> dict[str, Any]:
        request = schemas.AppendRequest.from_dict(_dump(body))
        appended = manager.append(dataset_id, request.rows)
        return schemas.AppendResponse(
            dataset_id=dataset_id, appended=appended
        ).to_dict()

    @tenants.post("/{dataset_id}/query/similarity")
    def similarity(dataset_id: str, body: SimilarityBody) -> dict[str, Any]:
        request = schemas.SimilarityRequest.from_dict(_dump(body))
        value, snapshot = manager.query(
            dataset_id, "similarity", first=request.first, second=request.second
        )
        return schemas.SimilarityResponse.build(request, value, snapshot).to_dict()

    @tenants.post("/{dataset_id}/query/neighbors")
    def neighbors(dataset_id: str, body: NeighborsBody) -> dict[str, Any]:
        request = schemas.NeighborsRequest.from_dict(_dump(body))
        scored, snapshot = manager.query(
            dataset_id,
            "neighbors",
            attribute=request.attribute,
            limit=request.limit,
            min_similarity=request.min_similarity,
        )
        return schemas.NeighborsResponse.build(request, scored, snapshot).to_dict()

    @tenants.post("/{dataset_id}/query/clusters")
    def clusters(dataset_id: str, body: ClustersBody) -> dict[str, Any]:
        request = schemas.ClustersRequest.from_dict(_dump(body))
        clustering, snapshot = manager.query(
            dataset_id, "clusters", t=request.t, first_center=request.first_center
        )
        return schemas.ClustersResponse.build(clustering, snapshot).to_dict()

    @tenants.post("/{dataset_id}/query/dominators")
    def dominators(dataset_id: str, body: DominatorsBody) -> dict[str, Any]:
        request = schemas.DominatorsRequest.from_dict(_dump(body))
        result, snapshot = manager.query(
            dataset_id,
            "dominators",
            algorithm=request.algorithm,
            top_fraction=request.top_fraction,
            target=request.target,
        )
        return schemas.DominatorsResponse.build(request, result, snapshot).to_dict()

    @tenants.post("/{dataset_id}/query/classify")
    def classify(dataset_id: str, body: ClassifyBody) -> dict[str, Any]:
        request = schemas.ClassifyRequest.from_dict(_dump(body))
        predictions, snapshot = manager.query(
            dataset_id, "classify", evidence=request.evidence, targets=request.targets
        )
        return schemas.ClassifyResponse.build(predictions, snapshot).to_dict()

    app.include_router(ops)
    app.include_router(tenants)
    return app
