//! Shared experiment plumbing: the compressor registry matching the paper's
//! method names, and environment-controlled dataset scaling.

use sketchml_core::{
    GradientCompressor, KeyCompressor, QuantCompressor, RawCompressor, SketchMlCompressor,
    SketchMlConfig, TruncationCompressor, ValueWidth, ZipMlCompressor,
};
use sketchml_data::SparseDatasetSpec;

/// A named compression method, as the paper's figures label them.
pub struct Method {
    /// Display label ("SketchML", "Adam", "ZipML", …).
    pub label: &'static str,
    /// The compressor.
    pub compressor: Box<dyn GradientCompressor>,
}

impl Method {
    fn new(label: &'static str, compressor: Box<dyn GradientCompressor>) -> Self {
        Method { label, compressor }
    }
}

/// The three end-to-end competitors of §4.3: SketchML, Adam, ZipML.
pub fn competitor_compressors() -> Vec<Method> {
    vec![
        Method::new("SketchML", Box::new(SketchMlCompressor::default())),
        Method::new("Adam", Box::new(RawCompressor::default())),
        Method::new("ZipML", Box::new(ZipMlCompressor::paper_default())),
    ]
}

/// The Figure 8 ablation ladder: Adam → +Key → +Quan → +MinMax.
pub fn ablation_ladder() -> Vec<Method> {
    vec![
        Method::new("Adam", Box::new(RawCompressor::default())),
        Method::new("Adam+Key", Box::new(KeyCompressor)),
        Method::new("Adam+Key+Quan", Box::new(QuantCompressor::default())),
        Method::new(
            "Adam+Key+Quan+MinMax",
            Box::new(SketchMlCompressor::default()),
        ),
    ]
}

/// Every compressor in the workspace (Table 4 plus extras).
pub fn all_compressors() -> Vec<Method> {
    vec![
        Method::new("SketchML", Box::new(SketchMlCompressor::default())),
        Method::new(
            "ZipML-8bit",
            Box::new(ZipMlCompressor::new(8).expect("8 bits valid")),
        ),
        Method::new("ZipML-16bit", Box::new(ZipMlCompressor::paper_default())),
        Method::new(
            "Adam-float",
            Box::new(RawCompressor {
                width: ValueWidth::F32,
            }),
        ),
        Method::new("Adam-double", Box::new(RawCompressor::default())),
        Method::new("Adam+Key", Box::new(KeyCompressor)),
        Method::new("Adam+Key+Quan", Box::new(QuantCompressor::default())),
        Method::new("Truncation", Box::new(TruncationCompressor::default())),
    ]
}

/// A SketchML compressor with one config knob changed (Figure 13/Table 3).
pub fn sketchml_with(f: impl FnOnce(&mut SketchMlConfig)) -> SketchMlCompressor {
    let mut cfg = SketchMlConfig::default();
    f(&mut cfg);
    SketchMlCompressor::new(cfg).expect("config variants are valid")
}

/// Scale factor for dataset sizes, overridable via `SKETCHML_SCALE`
/// (e.g. `SKETCHML_SCALE=0.1 cargo run …` for a quick pass).
pub fn scale_factor() -> f64 {
    std::env::var("SKETCHML_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f: &f64| f > 0.0)
        .unwrap_or(1.0)
}

/// Applies the environment scale factor to a dataset spec.
pub fn scaled(spec: SparseDatasetSpec) -> SparseDatasetSpec {
    spec.scaled(scale_factor())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_have_expected_methods() {
        let names: Vec<&str> = competitor_compressors().iter().map(|m| m.label).collect();
        assert_eq!(names, vec!["SketchML", "Adam", "ZipML"]);
        assert_eq!(ablation_ladder().len(), 4);
        assert_eq!(all_compressors().len(), 8);
    }

    #[test]
    fn labels_match_compressor_names_where_applicable() {
        for m in competitor_compressors() {
            if m.label == "Adam" {
                assert_eq!(m.compressor.name(), "Adam");
            }
        }
    }

    #[test]
    fn sketchml_with_overrides() {
        let c = sketchml_with(|cfg| cfg.groups = 2);
        assert_eq!(c.config.groups, 2);
    }
}
