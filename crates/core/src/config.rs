//! Pipeline configuration, including the ablation switches of Tables 8–10.

/// Configuration of a [`crate::UniDm`] pipeline.
///
/// The four booleans correspond one-to-one to the columns of the paper's
/// ablation tables; the numeric knobs match the paper's defaults (one
/// meta-retrieved attribute, top-3 of 50 sampled records).
///
/// Everything here is a pure function of the task — a run with a given
/// config is deterministic whatever executes it, which is what lets
/// [`crate::BatchRunner`] interleave runs in a pipelined window (and
/// overlap their endpoint calls through [`crate::RoutedBackend`])
/// without changing a single output byte. Serving-side behaviour —
/// retries, rate limits, hedging — lives in [`crate::BackendConfig`]
/// instead, keeping "what the pipeline computes" and "how calls reach the
/// endpoint" independently configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Enable meta-wise retrieval (`p_rm`); otherwise pick attributes at
    /// random.
    pub meta_retrieval: bool,
    /// Enable instance-wise retrieval (`p_ri`); otherwise pick context
    /// records at random.
    pub instance_retrieval: bool,
    /// Enable context data parsing (`p_dp`); otherwise use raw
    /// serialization.
    pub context_parsing: bool,
    /// Enable target prompt construction (`p_cq`); otherwise concatenate
    /// task, context and query directly.
    pub prompt_construction: bool,
    /// Records sampled as instance-retrieval candidates (paper: 50).
    pub sample_size: usize,
    /// Context records kept after scoring (paper: 3).
    pub top_k: usize,
    /// Seed for the random sampling in retrieval (and the random fallbacks
    /// when components are disabled).
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's default setting: everything on, 50-record sample, top-3.
    pub fn paper_default() -> Self {
        PipelineConfig {
            meta_retrieval: true,
            instance_retrieval: true,
            context_parsing: true,
            prompt_construction: true,
            sample_size: 50,
            top_k: 3,
            seed: 0,
        }
    }

    /// Everything off: the "random context, serialized, flat prompt"
    /// baseline row of the ablation tables.
    pub fn all_off() -> Self {
        PipelineConfig {
            meta_retrieval: false,
            instance_retrieval: false,
            context_parsing: false,
            prompt_construction: false,
            ..Self::paper_default()
        }
    }

    /// Replaces the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The "UniDM (random)" setting of Table 1: context records are chosen
    /// at random (instance-wise retrieval off) while attribute selection,
    /// parsing and prompt construction stay on.
    pub fn random_context() -> Self {
        PipelineConfig {
            instance_retrieval: false,
            ..Self::paper_default()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper() {
        let c = PipelineConfig::paper_default();
        assert!(c.meta_retrieval && c.instance_retrieval);
        assert!(c.context_parsing && c.prompt_construction);
        assert_eq!(c.sample_size, 50);
        assert_eq!(c.top_k, 3);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!PipelineConfig::all_off().meta_retrieval);
        let r = PipelineConfig::random_context();
        assert!(!r.instance_retrieval && r.context_parsing);
    }

    #[test]
    fn with_seed_builder() {
        assert_eq!(PipelineConfig::paper_default().with_seed(9).seed, 9);
    }
}
