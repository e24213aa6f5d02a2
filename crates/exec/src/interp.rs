//! The function-body interpreter.
//!
//! Executes a [`FunctionBody`] against the [`ExecContext`], materializes the
//! output table, and records lineage at the granularity the body's
//! dependency pattern allows (§3): narrow bodies stamp every output tuple
//! with a fresh `lid` whose parent is the input tuple's `lid`; wide bodies
//! record table-level edges only.

use crate::{id_from_uri, ExecContext, ExecError};
use kath_fao::{FunctionBody, VisionImpl};
use kath_lineage::DataKind;
use kath_media::{Image, MediaFormat};
use kath_model::{SimOcr, SimVlm, VlmCascade};
use kath_multimodal::{populate_document, populate_image, SceneGraphViews, TextGraphViews};
use kath_storage::{Column, DataType, Row, Schema, Table, Value};

/// The result of executing one function body.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The materialized output (already registered in the catalog).
    pub table: Table,
    /// Table-level lid of the output.
    pub output_lid: i64,
    /// Per-row failures: `(row description, error)`. Unaffected tuples have
    /// already flowed into `table` (§5: "tuples unaffected by the error
    /// continue through the old function definition").
    pub failed_rows: Vec<(String, String)>,
    /// Input rows consumed.
    pub rows_in: usize,
    /// Batches the body's operator pipeline produced (0 when the body ran
    /// tuple-at-a-time or is not relational).
    pub batches_out: usize,
    /// Workers that drove the body's streaming phase (1 when serial).
    pub workers: usize,
    /// Per-worker busy milliseconds (empty when serial).
    pub worker_ms: Vec<f64>,
    /// Milliseconds spent in the deterministic parallel merge step (0.0
    /// when serial).
    pub merge_ms: f64,
    /// Whether the body's streaming phase ran as a fused compiled pipeline
    /// (false for interpreted, non-relational, or fallback plans).
    pub compiled: bool,
    /// Milliseconds spent compiling the pipeline's kernels (0.0 when
    /// interpreted).
    pub compile_ms: f64,
}

/// Executes `body` as function `func_id` version `ver_id`, materializing
/// `output_name` in the context's catalog.
pub fn execute_body(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    body: &FunctionBody,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    match body {
        FunctionBody::Sql { query, dedup_key } => exec_sql(
            ctx,
            func_id,
            ver_id,
            query,
            dedup_key.as_deref(),
            output_name,
        ),
        FunctionBody::MapExpr {
            input,
            expr,
            output_column,
        } => {
            let parsed = kath_sql::parse_expr(expr).map_err(|e| ExecError::Expr(e.to_string()))?;
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                input,
                output_name,
                &[(output_column.as_str(), DataType::Any)],
                |schema| {
                    let lowered = kath_sql::to_expr(&parsed, schema).map_err(|e| e.to_string())?;
                    Ok(move |row: &Row, schema: &Schema| {
                        let v = lowered.eval(row, schema).map_err(|e| e.to_string())?;
                        Ok(Some(vec![v]))
                    })
                },
            )
        }
        FunctionBody::FilterExpr { input, predicate } => {
            let parsed =
                kath_sql::parse_expr(predicate).map_err(|e| ExecError::Expr(e.to_string()))?;
            narrow_transform(ctx, func_id, ver_id, input, output_name, &[], |schema| {
                let lowered = kath_sql::to_expr(&parsed, schema).map_err(|e| e.to_string())?;
                Ok(move |row: &Row, schema: &Schema| {
                    let keep = lowered.eval(row, schema).map_err(|e| e.to_string())?;
                    Ok(if keep.is_truthy() { Some(vec![]) } else { None })
                })
            })
        }
        FunctionBody::ConceptScore {
            input,
            text_column,
            keywords,
            output_column,
        } => {
            let scorer = ctx.llm.concept_scorer(keywords);
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                input,
                output_name,
                &[(output_column.as_str(), DataType::Float)],
                |schema| {
                    let idx = column_index(schema, text_column)?;
                    Ok(move |row: &Row, _: &Schema| {
                        let score = match row[idx].as_str() {
                            Some(text) => scorer.score(text),
                            None => 0.0,
                        };
                        Ok(Some(vec![Value::Float(score)]))
                    })
                },
            )
        }
        FunctionBody::VisualClassify {
            input,
            uri_column,
            output_column,
            implementation,
            threshold,
            convert_unsupported,
        } => {
            let llm = ctx.llm.clone();
            let media = ctx.media.clone();
            let implementation = *implementation;
            let threshold = *threshold;
            let convert = *convert_unsupported;
            narrow_transform(
                ctx,
                func_id,
                ver_id,
                input,
                output_name,
                &[(output_column.as_str(), DataType::Bool)],
                |schema| {
                    let idx = column_index(schema, uri_column)?;
                    Ok(move |row: &Row, _: &Schema| {
                        let uri = row[idx]
                            .as_str()
                            .ok_or_else(|| format!("NULL media uri in '{uri_column}'"))?;
                        let image = media.image(uri).map_err(|e| e.to_string())?;
                        let decoded: Image;
                        let image = if !image.format.is_supported() && convert {
                            decoded = image.convert_to(MediaFormat::Png);
                            &decoded
                        } else {
                            image
                        };
                        let interest = visual_interest(image, implementation, &llm)
                            .map_err(|e| e.to_string())?;
                        Ok(Some(vec![Value::Bool(interest <= threshold)]))
                    })
                },
            )
        }
        FunctionBody::ViewPopulate {
            modality,
            implementation,
            convert_unsupported,
        } => exec_view_populate(
            ctx,
            func_id,
            ver_id,
            modality,
            *implementation,
            *convert_unsupported,
            output_name,
        ),
    }
}

/// The "visual interest" measure behind `classify_boring`: vivid colors,
/// object count, and action (saliency), exactly the features the paper's
/// sketch step names ("lacks vivid colors, few objects, little action").
/// Different physical implementations see different evidence.
pub fn visual_interest(
    image: &Image,
    implementation: VisionImpl,
    llm: &kath_model::SimLlm,
) -> Result<f64, kath_media::MediaError> {
    let meter = llm.meter().clone();
    let seed = llm.seed();
    let exciting_classes = llm.knowledge().exciting_object_classes();
    let from_detections = |dets: &[kath_model::Detection]| {
        let count_term = (dets.len() as f64 / 4.0).min(1.0);
        let action_term = if dets.is_empty() {
            0.0
        } else {
            dets.iter().map(|d| d.confidence).sum::<f64>() / dets.len() as f64
        };
        let exciting_bonus = if dets.iter().any(|d| exciting_classes.contains(&d.class)) {
            0.25
        } else {
            0.0
        };
        (0.40 * image.colorfulness() + 0.25 * count_term + 0.20 * action_term + exciting_bonus)
            .clamp(0.0, 1.0)
    };
    match implementation {
        VisionImpl::VlmAccurate => {
            let dets = SimVlm::accurate(seed, meter).detect(image)?;
            Ok(from_detections(&dets))
        }
        VisionImpl::VlmCheap => {
            let dets = SimVlm::cheap(seed, meter).detect(image)?;
            Ok(from_detections(&dets))
        }
        VisionImpl::Cascade => {
            let (dets, _escalated) = VlmCascade::new(seed, meter, 0.8).detect(image)?;
            Ok(from_detections(&dets))
        }
        VisionImpl::Ocr => {
            // OCR sees only legible text: a crude proxy (titles on busy
            // posters tend to be loud), deliberately less accurate.
            let texts = SimOcr::new(meter).read_text(image)?;
            let text_len: usize = texts.iter().map(String::len).sum();
            Ok((0.15 + 0.05 * texts.len() as f64 + 0.002 * text_len as f64).clamp(0.0, 1.0))
        }
    }
}

fn exec_sql(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    query: &str,
    dedup_key: Option<&str>,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    let select = kath_sql::parse_select(query).map_err(|e| ExecError::Sql(e.to_string()))?;
    let mut inputs = vec![select.from.clone()];
    inputs.extend(select.joins.iter().map(|j| j.table.clone()));
    // One frozen snapshot for the whole statement: cardinality estimates
    // and the scan itself read the same catalog version even while
    // concurrent sessions commit.
    let snapshot = ctx.catalog.snapshot();
    let rows_in: usize = inputs
        .iter()
        .map(|t| snapshot.get(t).map(|t| t.len()).unwrap_or(0))
        .sum();
    // The auto driver picks the physical drive from the context's knobs:
    // a fused compiled pipeline where the plan is compilable and the
    // compile mode (or its cost rule, under `Auto`) says it pays off, a
    // morsel-parallel interpreted drive when the context asks for threads,
    // serial interpreted otherwise. Results are identical across all three
    // by construction.
    let guard = ctx.limits.guard();
    let (mut table, stats) = kath_sql::run_select_auto_guarded(
        &snapshot,
        &select,
        output_name,
        ctx.exec_mode,
        ctx.threads,
        ctx.vector_mode,
        ctx.compile,
        &guard,
    )?;

    if let Some(key) = dedup_key {
        table = dedup_by_key(&table, key)?;
    }

    // Wide dependency: table-level lineage with one edge per input parent.
    let output_lid = ctx.lineage.alloc_lid();
    let mut recorded = false;
    for input in &inputs {
        if let Some(parent) = ctx.table_lid(input) {
            ctx.lineage.record(
                output_lid,
                Some(parent),
                None,
                func_id,
                ver_id,
                DataKind::Table,
            )?;
            recorded = true;
        }
    }
    if !recorded {
        ctx.lineage
            .record(output_lid, None, None, func_id, ver_id, DataKind::Table)?;
    }
    ctx.materialize(table.clone(), output_lid);
    Ok(ExecOutcome {
        table,
        output_lid,
        failed_rows: Vec::new(),
        rows_in,
        batches_out: stats.batches,
        workers: stats.workers.max(1),
        worker_ms: stats.worker_ms,
        merge_ms: stats.merge_ms,
        compiled: stats.compiled,
        compile_ms: stats.compile_ms,
    })
}

/// Keeps the first row per key value (the monitor's one-poster-one-movie
/// patch, §5).
fn dedup_by_key(table: &Table, key: &str) -> Result<Table, ExecError> {
    let idx = table
        .schema()
        .resolve(key)
        .map_err(|e| ExecError::Storage(e.to_string()))?;
    let mut seen = std::collections::HashSet::new();
    let mut out = Table::new(table.name(), table.schema().clone());
    for row in table.rows() {
        if seen.insert(row[idx].clone()) {
            out.push(row.clone())
                .map_err(|e| ExecError::Storage(e.to_string()))?;
        }
    }
    Ok(out)
}

/// Resolves a body's named column, with the message a failed row carries.
fn column_index(schema: &Schema, name: &str) -> Result<usize, String> {
    schema
        .index_of(name)
        .ok_or_else(|| format!("unknown column '{name}'"))
}

/// Shared implementation of narrow (row-level) transforms.
///
/// `prepare` runs once per execution, before the first row: it does the
/// row-invariant work that needs the input schema (lowering expressions,
/// resolving columns) and returns the per-row kernel. If it fails, every input row
/// fails with its message, exactly as if each row had hit the error itself;
/// an empty input fails no rows.
fn narrow_transform<K>(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    input: &str,
    output_name: &str,
    new_columns: &[(&str, DataType)],
    prepare: impl FnOnce(&Schema) -> Result<K, String>,
) -> Result<ExecOutcome, ExecError>
where
    K: FnMut(&Row, &Schema) -> Result<Option<Vec<Value>>, String>,
{
    let input_table = ctx.catalog.get(input)?;
    let in_schema = input_table.schema().clone();
    let lid_idx = in_schema.index_of("lid");
    let mut out_schema = in_schema.clone();
    if lid_idx.is_none() {
        out_schema = out_schema.with_column(Column::new("lid", DataType::Int));
    }
    for (name, dtype) in new_columns {
        out_schema = out_schema.with_column(Column::new(*name, *dtype));
    }
    let parent_table_lid = ctx.table_lid(input);

    let mut out = Table::new(output_name, out_schema);
    let mut failed_rows = Vec::new();
    let rows_in = input_table.len();
    let mut kernel = prepare(&in_schema);
    for row in input_table.rows() {
        let result = match &mut kernel {
            Ok(row_fn) => row_fn(row, &in_schema),
            Err(msg) => Err(msg.clone()),
        };
        match result {
            Err(msg) => {
                let desc = row.iter().map(Value::render).collect::<Vec<_>>().join(", ");
                failed_rows.push((desc, msg));
            }
            Ok(None) => {}
            Ok(Some(extra)) => {
                let parent = lid_idx.and_then(|i| row[i].as_int()).or(parent_table_lid);
                let new_lid = ctx.lineage.alloc_lid();
                ctx.lineage
                    .record(new_lid, parent, None, func_id, ver_id, DataKind::Row)?;
                let mut out_row = row.clone();
                match lid_idx {
                    Some(i) => out_row[i] = Value::Int(new_lid),
                    None => out_row.push(Value::Int(new_lid)),
                }
                out_row.extend(extra);
                out.push(out_row)?;
            }
        }
    }

    // Also record the table-level artifact so downstream wide operators have
    // a parent to point at.
    let output_lid = ctx.lineage.alloc_lid();
    ctx.lineage.record(
        output_lid,
        parent_table_lid,
        None,
        func_id,
        ver_id,
        DataKind::Table,
    )?;
    ctx.materialize(out.clone(), output_lid);
    Ok(ExecOutcome {
        table: out,
        output_lid,
        failed_rows,
        rows_in,
        // Narrow transforms run row-at-a-time so lineage stays row-accurate.
        batches_out: 0,
        workers: 1,
        worker_ms: Vec::new(),
        merge_ms: 0.0,
        compiled: false,
        compile_ms: 0.0,
    })
}

fn exec_view_populate(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    modality: &str,
    implementation: VisionImpl,
    convert_unsupported: bool,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    let mut failed_rows: Vec<(String, String)> = Vec::new();
    let mut summary = Table::new(
        output_name,
        Schema::of(&[("view", DataType::Str), ("rows", DataType::Int)]),
    );
    let rows_in;

    match modality {
        "text" => {
            let root = ctx.ingest_media_root("collection://documents")?;
            let mut views = TextGraphViews::empty();
            let docs: Vec<kath_media::Document> =
                ctx.media.documents().into_iter().cloned().collect();
            rows_in = docs.len();
            let llm = ctx.llm.clone();
            for (i, doc) in docs.iter().enumerate() {
                let did = id_from_uri(&doc.uri).unwrap_or(i as i64);
                let lineage = &mut ctx.lineage;
                let mut next_lid = || {
                    let l = lineage.alloc_lid();
                    let _ = lineage.record(l, Some(root), None, func_id, ver_id, DataKind::Row);
                    l
                };
                if let Err(e) = populate_document(&mut views, did, doc, &llm, &mut next_lid) {
                    failed_rows.push((doc.uri.clone(), e.to_string()));
                }
            }
            for table in [
                views.entities,
                views.mentions,
                views.relationships,
                views.attributes,
                views.texts,
            ] {
                let lid = ctx.lineage.alloc_lid();
                ctx.lineage
                    .record(lid, Some(root), None, func_id, ver_id, DataKind::Table)?;
                summary.push(vec![
                    Value::Str(table.name().to_string()),
                    Value::Int(table.len() as i64),
                ])?;
                ctx.materialize(table, lid);
            }
        }
        "scene" => {
            let root = ctx.ingest_media_root("collection://images")?;
            let mut views = SceneGraphViews::empty();
            let meter = ctx.llm.meter().clone();
            let seed = ctx.llm.seed();
            let vlm = match implementation {
                VisionImpl::VlmCheap => SimVlm::cheap(seed, meter),
                // OCR/cascade don't apply to full scene extraction; the
                // accurate VLM is the reference implementation.
                _ => SimVlm::accurate(seed, meter),
            };
            let images: Vec<Image> = ctx.media.images().into_iter().cloned().collect();
            rows_in = images.len();
            for (i, image) in images.iter().enumerate() {
                let vid = id_from_uri(&image.uri).unwrap_or(i as i64);
                let converted;
                let img = if !image.format.is_supported() && convert_unsupported {
                    converted = image.convert_to(MediaFormat::Png);
                    // The conversion step replaces the undecodable file with
                    // a decodable copy; later operators resolve the new URI
                    // and re-runs do not see the original twice.
                    ctx.media.remove_image(&image.uri);
                    ctx.media.add_image(converted.clone());
                    &converted
                } else {
                    image
                };
                let lineage = &mut ctx.lineage;
                let mut next_lid = || {
                    let l = lineage.alloc_lid();
                    let _ = lineage.record(l, Some(root), None, func_id, ver_id, DataKind::Row);
                    l
                };
                if let Err(e) = populate_image(&mut views, vid, img, &vlm, &mut next_lid) {
                    failed_rows.push((image.uri.clone(), e.to_string()));
                }
            }
            for table in [
                views.objects,
                views.relationships,
                views.attributes,
                views.frames,
            ] {
                let lid = ctx.lineage.alloc_lid();
                ctx.lineage
                    .record(lid, Some(root), None, func_id, ver_id, DataKind::Table)?;
                summary.push(vec![
                    Value::Str(table.name().to_string()),
                    Value::Int(table.len() as i64),
                ])?;
                ctx.materialize(table, lid);
            }
        }
        other => {
            return Err(ExecError::Media(format!(
                "unknown view modality '{other}' (expected 'text' or 'scene')"
            )))
        }
    }

    let output_lid = ctx.lineage.alloc_lid();
    ctx.lineage
        .record(output_lid, None, None, func_id, ver_id, DataKind::Table)?;
    ctx.materialize(summary.clone(), output_lid);
    Ok(ExecOutcome {
        table: summary,
        output_lid,
        failed_rows,
        rows_in,
        batches_out: 0,
        workers: 1,
        worker_ms: Vec::new(),
        merge_ms: 0.0,
        compiled: false,
        compile_ms: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_media::{BBox, Color, Document, ImageObject};
    use kath_model::{SimLlm, TokenMeter};

    fn ctx() -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let films = Table::from_rows(
            "films",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
            ]),
            vec![
                vec![1i64.into(), "Guilty by Suspicion".into(), 1991i64.into()],
                vec![2i64.into(), "Clean and Sober".into(), 1988i64.into()],
                vec![3i64.into(), "Quiet Days".into(), 1975i64.into()],
            ],
        )
        .unwrap();
        ctx.ingest_table(films, "file://data/films").unwrap();
        ctx
    }

    fn exciting_poster(uri: &str, format: MediaFormat) -> Image {
        Image::new(uri, format)
            .with_color(Color::rgb(230, 20, 20))
            .with_color(Color::rgb(20, 20, 230))
            .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.5, 0.9)))
            .with_object(ImageObject::new("gun", BBox::new(0.4, 0.4, 0.6, 0.6)))
            .with_object(ImageObject::new(
                "motorcycle",
                BBox::new(0.5, 0.6, 0.9, 0.95),
            ))
            .with_object(ImageObject::new(
                "explosion",
                BBox::new(0.6, 0.1, 0.95, 0.4),
            ))
    }

    fn boring_poster(uri: &str) -> Image {
        Image::new(uri, MediaFormat::Png)
            .with_color(Color::rgb(120, 120, 120))
            .with_object(
                ImageObject::new("portrait", BBox::new(0.3, 0.2, 0.7, 0.8)).with_saliency(0.3),
            )
    }

    #[test]
    fn sql_body_records_table_lineage() {
        let mut c = ctx();
        let body = FunctionBody::Sql {
            query: "SELECT title, year FROM films WHERE year >= 1988".into(),
            dedup_key: None,
        };
        let out = execute_body(&mut c, "select_recent", 1, &body, "recent").unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(c.catalog.contains("recent"));
        let edges = c.lineage.edges_of(out.output_lid);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].data_type, DataKind::Table);
        assert_eq!(edges[0].parent_lid, c.table_lid("films"));
    }

    #[test]
    fn parallel_sql_body_matches_serial_and_reports_workers() {
        let mk = || {
            let mut c = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
            let mut films = Table::new(
                "films",
                Schema::of(&[("id", DataType::Int), ("year", DataType::Int)]),
            );
            for i in 0..20_000i64 {
                films.push(vec![i.into(), (1950 + i % 70).into()]).unwrap();
            }
            c.ingest_table(films, "bench://films").unwrap();
            c
        };
        let body = FunctionBody::Sql {
            query: "SELECT year, COUNT(*) AS n FROM films WHERE year >= 1990 \
                    GROUP BY year ORDER BY year"
                .into(),
            dedup_key: None,
        };
        let mut serial_ctx = mk();
        let serial = execute_body(&mut serial_ctx, "agg", 1, &body, "out").unwrap();
        assert_eq!(serial.workers, 1);
        let mut par_ctx = mk();
        par_ctx.threads = 4;
        let parallel = execute_body(&mut par_ctx, "agg", 1, &body, "out").unwrap();
        assert_eq!(parallel.table, serial.table, "parallel must match serial");
        assert!(parallel.workers > 1, "expected a parallel run");
        assert_eq!(parallel.worker_ms.len(), parallel.workers);
    }

    #[test]
    fn map_expr_stamps_fresh_row_lids() {
        let mut c = ctx();
        let body = FunctionBody::MapExpr {
            input: "films".into(),
            expr: "clamp01((year - 1970) / 25.0)".into(),
            output_column: "recency_score".into(),
        };
        let out = execute_body(&mut c, "gen_recency_score", 1, &body, "scored").unwrap();
        assert_eq!(out.table.len(), 3);
        let lid_col = out.table.schema().index_of("lid").unwrap();
        let mut lids: Vec<i64> = out
            .table
            .rows()
            .iter()
            .map(|r| r[lid_col].as_int().unwrap())
            .collect();
        let distinct: std::collections::HashSet<i64> = lids.drain(..).collect();
        assert_eq!(distinct.len(), 3, "each tuple needs its own lid");
        // Row-level lineage recorded with the films table as parent.
        for l in distinct {
            let e = c.lineage.edges_of(l)[0];
            assert_eq!(e.data_type, DataKind::Row);
            assert_eq!(e.func_id, "gen_recency_score");
        }
        // Newer year → higher score.
        let s91 = out
            .table
            .cell(0, "recency_score")
            .unwrap()
            .as_f64()
            .unwrap();
        let s75 = out
            .table
            .cell(2, "recency_score")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(s91 > s75);
    }

    #[test]
    fn chained_narrow_ops_link_row_lineage() {
        let mut c = ctx();
        execute_body(
            &mut c,
            "gen_recency_score",
            1,
            &FunctionBody::MapExpr {
                input: "films".into(),
                expr: "clamp01((year - 1970) / 25.0)".into(),
                output_column: "recency_score".into(),
            },
            "scored",
        )
        .unwrap();
        let out = execute_body(
            &mut c,
            "combine_score",
            1,
            &FunctionBody::MapExpr {
                input: "scored".into(),
                expr: "recency_score * 1.0".into(),
                output_column: "final_score".into(),
            },
            "combined",
        )
        .unwrap();
        let lid_col = out.table.schema().index_of("lid").unwrap();
        let lid = out.table.rows()[0][lid_col].as_int().unwrap();
        let trace = c.lineage.trace(lid).unwrap();
        // Tuple -> scored tuple -> films table root.
        assert!(trace.depth() >= 3);
        let funcs: Vec<String> = trace.functions().into_iter().map(|(f, _)| f).collect();
        assert_eq!(funcs[0], "combine_score");
        assert!(funcs.contains(&"gen_recency_score".to_string()));
        assert!(funcs.contains(&"ingest".to_string()));
    }

    #[test]
    fn filter_keeps_subset_with_lineage() {
        let mut c = ctx();
        let out = execute_body(
            &mut c,
            "filter_recent",
            1,
            &FunctionBody::FilterExpr {
                input: "films".into(),
                predicate: "year >= 1988".into(),
            },
            "recent",
        )
        .unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(out.table.schema().index_of("lid").is_some());
    }

    #[test]
    fn concept_score_separates_plots() {
        let mut c = ctx();
        let plots = Table::from_rows(
            "plots",
            Schema::of(&[("id", DataType::Int), ("chars", DataType::Str)]),
            vec![
                vec![1i64.into(), "A gun fight and a murder on a plane.".into()],
                vec![2i64.into(), "Tea in a quiet garden all afternoon.".into()],
            ],
        )
        .unwrap();
        c.ingest_table(plots, "d").unwrap();
        let out = execute_body(
            &mut c,
            "gen_excitement_score",
            1,
            &FunctionBody::ConceptScore {
                input: "plots".into(),
                text_column: "chars".into(),
                keywords: vec!["gun".into(), "murder".into(), "attack".into()],
                output_column: "excitement_score".into(),
            },
            "scored",
        )
        .unwrap();
        let s1 = out
            .table
            .cell(0, "excitement_score")
            .unwrap()
            .as_f64()
            .unwrap();
        let s2 = out
            .table
            .cell(1, "excitement_score")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(s1 > s2 + 0.2, "exciting={s1} calm={s2}");
    }

    /// Row-invariant work runs once per body, but a failure there still
    /// fails every input row with the message the row itself would have hit
    /// — and an empty input still fails none (the monitor's repair loop
    /// keys off `failed_rows`).
    #[test]
    fn body_preparation_failure_fails_every_row() {
        let expr = "clamp01(missing_col / 2.0)";
        let map = |input: &str| FunctionBody::MapExpr {
            input: input.into(),
            expr: expr.into(),
            output_column: "score".into(),
        };
        let concept = |input: &str| FunctionBody::ConceptScore {
            input: input.into(),
            text_column: "plot".into(),
            keywords: vec!["gun".into()],
            output_column: "score".into(),
        };
        let mut c = ctx();
        let schema = c.catalog.get("films").unwrap().schema().clone();
        let lowering_error = kath_sql::to_expr(&kath_sql::parse_expr(expr).unwrap(), &schema)
            .unwrap_err()
            .to_string();
        let empty = Table::new("no_films", schema);
        c.ingest_table(empty, "file://data/none").unwrap();

        for (body, message) in [
            (map("films"), lowering_error),
            (concept("films"), "unknown column 'plot'".to_string()),
        ] {
            let usage = c.llm.meter().usage();
            let out = execute_body(&mut c, "f", 1, &body, "o").unwrap();
            assert!(out.table.is_empty());
            assert_eq!(out.rows_in, 3);
            assert_eq!(out.failed_rows.len(), 3, "{body:?}");
            for (i, (desc, msg)) in out.failed_rows.iter().enumerate() {
                assert!(desc.starts_with(&format!("{}, ", i + 1)), "{desc}");
                assert_eq!(msg, &message);
            }
            assert_eq!(c.llm.meter().usage(), usage, "a failed row charges nothing");
        }
        for body in [map("no_films"), concept("no_films")] {
            let out = execute_body(&mut c, "f", 1, &body, "o").unwrap();
            assert!(out.failed_rows.is_empty(), "{body:?}");
        }
    }

    #[test]
    fn visual_classify_flags_boring_and_fails_on_heic() {
        let mut c = ctx();
        c.media
            .add_image(exciting_poster("file://posters/1.png", MediaFormat::Png));
        c.media.add_image(boring_poster("file://posters/2.png"));
        c.media
            .add_image(exciting_poster("file://posters/3.heic", MediaFormat::Heic));
        let posters = Table::from_rows(
            "posters",
            Schema::of(&[("id", DataType::Int), ("poster_uri", DataType::Str)]),
            vec![
                vec![1i64.into(), "file://posters/1.png".into()],
                vec![2i64.into(), "file://posters/2.png".into()],
                vec![3i64.into(), "file://posters/3.heic".into()],
            ],
        )
        .unwrap();
        c.ingest_table(posters, "p").unwrap();
        let body = FunctionBody::VisualClassify {
            input: "posters".into(),
            uri_column: "poster_uri".into(),
            output_column: "boring".into(),
            implementation: VisionImpl::VlmAccurate,
            threshold: 0.4,
            convert_unsupported: false,
        };
        let out = execute_body(&mut c, "classify_boring", 1, &body, "flagged").unwrap();
        // The HEIC row failed; the two PNG rows continued (§5).
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.failed_rows.len(), 1);
        assert!(out.failed_rows[0].1.contains("unsupported"));
        assert_eq!(out.table.cell(0, "boring").unwrap(), &Value::Bool(false));
        assert_eq!(out.table.cell(1, "boring").unwrap(), &Value::Bool(true));

        // The repaired version (conversion enabled) processes all rows.
        let patched = FunctionBody::VisualClassify {
            input: "posters".into(),
            uri_column: "poster_uri".into(),
            output_column: "boring".into(),
            implementation: VisionImpl::VlmAccurate,
            threshold: 0.4,
            convert_unsupported: true,
        };
        let out2 = execute_body(&mut c, "classify_boring", 2, &patched, "flagged").unwrap();
        assert_eq!(out2.table.len(), 3);
        assert!(out2.failed_rows.is_empty());
    }

    #[test]
    fn sql_dedup_key_keeps_first_per_key() {
        let mut c = ctx();
        let dup = Table::from_rows(
            "dup",
            Schema::of(&[("id", DataType::Int), ("v", DataType::Str)]),
            vec![
                vec![1i64.into(), "a".into()],
                vec![1i64.into(), "b".into()],
                vec![2i64.into(), "c".into()],
            ],
        )
        .unwrap();
        c.ingest_table(dup, "d").unwrap();
        let body = FunctionBody::Sql {
            query: "SELECT * FROM dup".into(),
            dedup_key: Some("id".into()),
        };
        let out = execute_body(&mut c, "dedup", 1, &body, "o").unwrap();
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.table.cell(0, "v").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn view_populate_text_and_scene() {
        let mut c = ctx();
        c.media.add_document(Document::new(
            "doc://plot/1",
            "Irwin Winkler directed it. A gun fight erupts.",
        ));
        c.media
            .add_document(Document::new("doc://plot/2", "Tea in the garden."));
        c.media
            .add_image(exciting_poster("file://posters/1.png", MediaFormat::Png));
        c.media.add_image(boring_poster("file://posters/2.png"));

        let t = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "text".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "text_views",
        )
        .unwrap();
        assert!(t.failed_rows.is_empty());
        assert!(c.catalog.contains("text_texts"));
        assert_eq!(c.catalog.get("text_texts").unwrap().len(), 2);
        // did comes from the URI convention.
        let texts = c.catalog.get("text_texts").unwrap();
        assert_eq!(texts.cell(0, "did").unwrap(), &Value::Int(1));

        let s = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "scene_views",
        )
        .unwrap();
        assert!(s.failed_rows.is_empty());
        assert!(c.catalog.contains("scene_objects"));
        assert!(c.catalog.get("scene_objects").unwrap().len() >= 4);
    }

    #[test]
    fn view_populate_collects_heic_failures_until_patched() {
        let mut c = ctx();
        c.media
            .add_image(exciting_poster("file://posters/9.heic", MediaFormat::Heic));
        let v1 = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "sv",
        )
        .unwrap();
        assert_eq!(v1.failed_rows.len(), 1);
        let v2 = execute_body(
            &mut c,
            "populate_views",
            2,
            &FunctionBody::ViewPopulate {
                modality: "scene".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: true,
            },
            "sv",
        )
        .unwrap();
        assert!(v2.failed_rows.is_empty());
    }

    #[test]
    fn unknown_modality_is_fatal() {
        let mut c = ctx();
        let err = execute_body(
            &mut c,
            "populate_views",
            1,
            &FunctionBody::ViewPopulate {
                modality: "audio".into(),
                implementation: VisionImpl::VlmAccurate,
                convert_unsupported: false,
            },
            "o",
        );
        assert!(matches!(err, Err(ExecError::Media(_))));
    }

    #[test]
    fn ocr_impl_is_less_accurate_than_vlm() {
        let llm = SimLlm::new(42, TokenMeter::new());
        let boring = boring_poster("b.png");
        let exciting = exciting_poster("e.png", MediaFormat::Png);
        let vlm_b = visual_interest(&boring, VisionImpl::VlmAccurate, &llm).unwrap();
        let vlm_e = visual_interest(&exciting, VisionImpl::VlmAccurate, &llm).unwrap();
        assert!(vlm_e > vlm_b + 0.2, "vlm: exciting={vlm_e} boring={vlm_b}");
        // OCR cannot see colors/objects: both posters look alike to it.
        let ocr_b = visual_interest(&boring, VisionImpl::Ocr, &llm).unwrap();
        let ocr_e = visual_interest(&exciting, VisionImpl::Ocr, &llm).unwrap();
        assert!((ocr_e - ocr_b).abs() < 0.15);
    }
}
